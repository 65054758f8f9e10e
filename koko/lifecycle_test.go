package koko

import (
	"bytes"
	"errors"
	"log"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
)

// The corpus owns its lifecycle: readers never take its writer lock, and
// it starts its own background compactions from three triggers (delta
// size, WAL size, interval), counting and logging the ones that fail.

// waitFor polls the corpus's published snapshot until cond holds.
func waitFor(t *testing.T, m *Mutable, what string, cond func(*Snapshot) bool) *Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := m.Snapshot()
		if cond(snap) {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: lifecycle %+v, delta %d", what, snap.Lifecycle(), snap.DeltaDocs())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSnapshotNeverWaitsOnWriter: with the writer lock held (a writer
// parked mid-seal or mid-fsync), Snapshot still returns at once.
func TestSnapshotNeverWaitsOnWriter(t *testing.T) {
	m := NewMutable(NewEngine(NewCorpus(nil, []string{"Cafe Vita serves espresso."}), nil), nil)
	m.mu.Lock()
	defer m.mu.Unlock()
	got := make(chan *Snapshot, 1)
	go func() { got <- m.Snapshot() }()
	select {
	case snap := <-got:
		if snap.NumDocuments() != 1 {
			t.Fatalf("snapshot has %d docs, want 1", snap.NumDocuments())
		}
	case <-time.After(time.Second):
		t.Fatal("Snapshot waited on the writer lock")
	}
}

// TestWALSizeTrigger: a durable corpus whose WAL crosses WALMaxBytes folds
// in the background with no explicit call; the fold truncates the WAL and
// the corpus still answers like a from-scratch rebuild.
func TestWALSizeTrigger(t *testing.T) {
	full := WrapCorpus(corpus.GenHappyDB(120, 23))
	docs := allDocs(full)
	half := len(docs) / 2
	const limit = 8 << 10
	m, err := OpenMutable(NewShardedEngine(prefixCorpus(full, half), 2, nil), MutableConfig{Dir: t.TempDir(), WALMaxBytes: limit})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	live := append([]docRec(nil), docs[:half]...)
	crossed := false
	for _, d := range docs[half:] {
		snap, err := m.AddParsedDocument(d.name, d.sents)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, d)
		if snap.Lifecycle().WALBytes >= limit {
			crossed = true
			break
		}
	}
	if !crossed {
		t.Fatalf("ingesting %d documents never grew the WAL to %d bytes", len(docs)-half, limit)
	}
	snap := waitFor(t, m, "a WAL-triggered fold", func(s *Snapshot) bool {
		ls := s.Lifecycle()
		return ls.Compactions == 1 && ls.WALBytes < limit
	})
	if snap.DeltaDocs() != 0 || snap.Lifecycle().Swaps != 1 {
		t.Fatalf("after the fold: delta %d, lifecycle %+v", snap.DeltaDocs(), snap.Lifecycle())
	}
	checkLive(t, "wal-triggered", snap, live)
}

// TestIntervalTrigger: a short CompactInterval drains the delta with no
// explicit call, and Close stops the timer without leaking a goroutine.
func TestIntervalTrigger(t *testing.T) {
	full := WrapCorpus(corpus.GenHappyDB(60, 29))
	docs := allDocs(full)
	before := runtime.NumGoroutine()
	m, err := OpenMutable(NewEngine(prefixCorpus(full, len(docs)-3), nil), MutableConfig{CompactInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs[len(docs)-3:] {
		if _, err := m.AddParsedDocument(d.name, d.sents); err != nil {
			t.Fatal(err)
		}
	}
	snap := waitFor(t, m, "an interval fold", func(s *Snapshot) bool {
		return s.DeltaDocs() == 0 && s.Lifecycle().Compactions >= 1
	})
	checkLive(t, "interval-drained", snap, docs)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	armed := m.timer.Stop()
	m.mu.Unlock()
	if armed {
		t.Fatal("Close left the interval timer armed")
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before Open: the timer leaked", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := m.Compact(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Compact after Close: %v", err)
	}
}

// TestBackgroundFoldFailure: a background fold that fails is counted and
// logged by the corpus, which keeps answering exactly as before; the next
// fold succeeds.
func TestBackgroundFoldFailure(t *testing.T) {
	var logs bytes.Buffer
	log.SetOutput(&logs)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })

	full := WrapCorpus(corpus.GenHappyDB(80, 31))
	docs := allDocs(full)
	half := len(docs) / 2
	m, err := OpenMutable(NewShardedEngine(prefixCorpus(full, half), 2, nil),
		MutableConfig{Name: "moments", Dir: t.TempDir(), MaxDeltaDocs: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	boom := errors.New("injected failure")
	armed := true // only background folds, serialized by compactMu, touch it
	m.failpoint = func(stage string) error {
		if stage == "pre-manifest-swap" && armed {
			armed = false
			return boom
		}
		return nil
	}
	live := append([]docRec(nil), docs[:half]...)
	for _, d := range docs[half : half+3] {
		if _, err := m.AddParsedDocument(d.name, d.sents); err != nil {
			t.Fatal(err)
		}
		live = append(live, d)
	}
	snap := waitFor(t, m, "the failed fold", func(s *Snapshot) bool { return s.Lifecycle().CompactionErrors == 1 })
	if ls := snap.Lifecycle(); ls.Compactions != 0 || snap.DeltaDocs() != 3 {
		t.Fatalf("after the failed fold: delta %d, lifecycle %+v", snap.DeltaDocs(), ls)
	}
	if got := logs.String(); !strings.Contains(got, `corpus "moments": background compaction`) || !strings.Contains(got, boom.Error()) {
		t.Fatalf("failure not logged: %q", got)
	}
	checkLive(t, "after failed fold", snap, live)

	d := docs[half+3]
	if _, err := m.AddParsedDocument(d.name, d.sents); err != nil {
		t.Fatal(err)
	}
	live = append(live, d)
	snap = waitFor(t, m, "the next fold", func(s *Snapshot) bool { return s.Lifecycle().Compactions == 1 })
	if ls := snap.Lifecycle(); ls.CompactionErrors != 1 || snap.DeltaDocs() != 0 {
		t.Fatalf("after the next fold: delta %d, lifecycle %+v", snap.DeltaDocs(), ls)
	}
	checkLive(t, "after next fold", snap, live)
}
