package koko

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/koko/index"
	"repro/internal/koko/wal"
	"repro/internal/nlp"
)

// Durability and tombstone differential suite: every mutation sequence —
// ingest, delete, upsert, compact, crash, restart — must leave the corpus
// answering queries byte-identically to an engine rebuilt from scratch over
// the live documents in ingestion order.

const happyQuery = `extract o:Str from "moments" if (
	/ROOT:{ v = //verb, b = v/dobj, o = (b.subtree) })
	satisfying o ("ate" o {0.7}) or (o near "delicious" {1}) with threshold 0.2`

// docRec models one live document of the reference corpus.
type docRec struct {
	name  string
	sents []nlp.Sentence
}

func allDocs(c *Corpus) []docRec {
	out := make([]docRec, c.NumDocuments())
	for d := range out {
		name, sents := docSents(c, d)
		out[d] = docRec{name, sents}
	}
	return out
}

func withoutName(live []docRec, name string) []docRec {
	out := make([]docRec, 0, len(live))
	for _, d := range live {
		if d.name != name {
			out = append(out, d)
		}
	}
	return out
}

// refEngine builds a from-scratch engine over the live documents in order —
// the ground truth every mutable state is compared against.
func refEngine(live []docRec) *Engine {
	c := &index.Corpus{}
	for _, d := range live {
		sents := make([]nlp.Sentence, len(d.sents))
		copy(sents, d.sents)
		c.AppendDoc(d.name, sents)
	}
	return NewEngine(&Corpus{c: c}, nil)
}

// checkLive asserts q matches the reference over live exactly: tuples,
// matched count, document/sentence totals, and name attribution.
func checkLive(t *testing.T, label string, q *Snapshot, live []docRec) {
	t.Helper()
	ref := refEngine(live)
	want := mustRun(t, ref, happyQuery, nil)
	got := mustRun(t, q, happyQuery, nil)
	if len(want.Tuples) != len(got.Tuples) {
		t.Fatalf("%s: %d tuples, want %d", label, len(got.Tuples), len(want.Tuples))
	}
	for i := range want.Tuples {
		w, g := want.Tuples[i], got.Tuples[i]
		if w.SentenceID != g.SentenceID || w.Document != g.Document ||
			fmt.Sprint(w.Values) != fmt.Sprint(g.Values) {
			t.Fatalf("%s: tuple %d differs: got {sid %d doc %d %v}, want {sid %d doc %d %v}",
				label, i, g.SentenceID, g.Document, g.Values, w.SentenceID, w.Document, w.Values)
		}
	}
	// Matched is a pruning diagnostic: masking subtracts tombstoned
	// sentences whose tuples it dropped, but a dead sentence filtered by
	// the satisfying clause stays counted — so masked Matched may slightly
	// exceed the rebuild's, never undershoot it.
	if got.Matched < want.Matched {
		t.Fatalf("%s: matched %d, want >= %d", label, got.Matched, want.Matched)
	}
	if q.NumDocuments() != ref.NumDocuments() || q.NumSentences() != ref.NumSentences() {
		t.Fatalf("%s: %d docs/%d sents, want %d/%d",
			label, q.NumDocuments(), q.NumSentences(), ref.NumDocuments(), ref.NumSentences())
	}
	for d := 0; d < ref.NumDocuments(); d++ {
		if got, want := q.DocumentName(d), ref.DocumentName(d); got != want {
			t.Fatalf("%s: DocumentName(%d) = %q, want %q", label, d, got, want)
		}
	}
}

// TestMutableDeleteDifferential: deletes and upserts — against base docs,
// delta docs, racing nothing — masked out of every read immediately and
// folded away by compaction, with reads equal to a from-scratch rebuild at
// every stage.
func TestMutableDeleteDifferential(t *testing.T) {
	full := WrapCorpus(corpus.GenHappyDB(140, 3))
	docs := allDocs(full)
	nd := len(docs)
	if nd < 8 {
		t.Fatalf("generator yields only %d docs", nd)
	}
	half := nd / 2
	for _, k := range []int{1, 3} {
		mut := NewMutable(baseEngine(prefixCorpus(full, half), k), nil)
		live := append([]docRec(nil), docs[:half]...)
		for d := half; d < nd; d++ {
			if _, err := mut.AddParsedDocument(docs[d].name, docs[d].sents); err != nil {
				t.Fatal(err)
			}
			live = append(live, docs[d])
		}

		// Delete one base document and one delta document.
		for _, victim := range []string{docs[1].name, docs[half+1].name} {
			if _, n, err := mut.DeleteDocument(victim); err != nil || n != 1 {
				t.Fatalf("k=%d delete %q: n=%d err=%v", k, victim, n, err)
			}
			live = withoutName(live, victim)
		}
		if _, _, err := mut.DeleteDocument("no-such-doc"); !errors.Is(err, ErrNoDocument) {
			t.Fatalf("k=%d delete missing: %v", k, err)
		}
		if _, _, err := mut.DeleteDocument(docs[1].name); !errors.Is(err, ErrNoDocument) {
			t.Fatalf("k=%d double delete: %v", k, err)
		}
		checkLive(t, fmt.Sprintf("k=%d masked", k), mut.Snapshot(), live)
		if got := mut.Snapshot().Tombstones(); got != 2 {
			t.Fatalf("k=%d tombstones = %d, want 2", k, got)
		}

		// Upsert: replace a base document's content (with another doc's
		// sentences) and add a brand-new name through the same call.
		repl := docRec{docs[2].name, docs[half].sents}
		if _, replaced, err := mut.PutParsedDocument(repl.name, repl.sents); err != nil || !replaced {
			t.Fatalf("k=%d put replace: replaced=%t err=%v", k, replaced, err)
		}
		live = append(withoutName(live, repl.name), repl)
		fresh := docRec{"fresh.txt", docs[0].sents}
		if _, replaced, err := mut.PutParsedDocument(fresh.name, fresh.sents); err != nil || replaced {
			t.Fatalf("k=%d put fresh: replaced=%t err=%v", k, replaced, err)
		}
		live = append(live, fresh)
		checkLive(t, fmt.Sprintf("k=%d upserted", k), mut.Snapshot(), live)

		// Compaction folds all tombstones away and changes nothing visible.
		st, err := mut.Compact()
		if err != nil {
			t.Fatal(err)
		}
		if st.Tombstones != 3 {
			t.Fatalf("k=%d compacted %d tombstones, want 3", k, st.Tombstones)
		}
		if mut.Snapshot().Tombstones() != 0 || mut.Snapshot().DeltaDocs() != 0 {
			t.Fatalf("k=%d residue after compact: tombs=%d delta=%d", k, mut.Snapshot().Tombstones(), mut.Snapshot().DeltaDocs())
		}
		checkLive(t, fmt.Sprintf("k=%d compacted", k), mut.Snapshot(), live)

		// Delete after compaction (a base-only corpus) and compact again.
		victim := live[len(live)/2].name
		if _, _, err := mut.DeleteDocument(victim); err != nil {
			t.Fatal(err)
		}
		live = withoutName(live, victim)
		checkLive(t, fmt.Sprintf("k=%d re-deleted", k), mut.Snapshot(), live)
		if _, err := mut.Compact(); err != nil {
			t.Fatal(err)
		}
		checkLive(t, fmt.Sprintf("k=%d re-compacted", k), mut.Snapshot(), live)
	}
}

// TestMutableSaveError: the Save error names the corpus and counts both
// delta documents and tombstones; an explicit compact clears the way.
func TestMutableSaveError(t *testing.T) {
	full := WrapCorpus(corpus.GenHappyDB(60, 9))
	docs := allDocs(full)
	mut, err := OpenMutable(baseEngine(prefixCorpus(full, len(docs)-1), 1), MutableConfig{Name: "reviews"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mut.AddParsedDocument(docs[len(docs)-1].name, docs[len(docs)-1].sents); err != nil {
		t.Fatal(err)
	}
	if _, _, err := mut.DeleteDocument(docs[0].name); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.koko")
	err = mut.Snapshot().Save(path)
	if err == nil {
		t.Fatal("Save succeeded with live delta and tombstones")
	}
	for _, want := range []string{`corpus "reviews"`, "1 uncompacted delta documents", "1 live tombstones"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("Save error %q missing %q", err, want)
		}
	}
	if _, err := mut.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := mut.Snapshot().Save(path); err != nil {
		t.Fatalf("Save after compact: %v", err)
	}
}

// durableFixture opens a durable corpus in dir seeded with the first half
// of docs, ingests the second half through the WAL, and deletes one base
// and one delta document. Returns the expected live set.
func durableFixture(t *testing.T, dir string, docs []docRec, full *Corpus, sync wal.SyncPolicy) (*Mutable, []docRec) {
	t.Helper()
	nd := len(docs)
	half := nd / 2
	seed := NewShardedEngine(prefixCorpus(full, half), 2, nil)
	m, err := OpenDurable(seed, DurableConfig{Dir: dir, Sync: sync})
	if err != nil {
		t.Fatal(err)
	}
	live := append([]docRec(nil), docs[:half]...)
	for d := half; d < nd; d++ {
		if _, err := m.AddParsedDocument(docs[d].name, docs[d].sents); err != nil {
			t.Fatal(err)
		}
		live = append(live, docs[d])
	}
	for _, victim := range []string{docs[1].name, docs[half].name} {
		if _, _, err := m.DeleteDocument(victim); err != nil {
			t.Fatal(err)
		}
		live = withoutName(live, victim)
	}
	return m, live
}

// TestDurableRestartReplay: closing and reopening a durable corpus replays
// the WAL into a state identical to the pre-restart one — including
// tombstones — and recovery counters report the replay.
func TestDurableRestartReplay(t *testing.T) {
	full := WrapCorpus(corpus.GenHappyDB(120, 5))
	docs := allDocs(full)
	dir := t.TempDir()
	m, live := durableFixture(t, dir, docs, full, wal.SyncAlways)
	checkLive(t, "pre-restart", m.Snapshot(), live)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddParsedDocument("late.txt", docs[0].sents); !errors.Is(err, ErrClosed) {
		t.Fatalf("mutation after Close: %v", err)
	}

	m2, err := OpenDurable(nil, DurableConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	checkLive(t, "post-restart", m2.Snapshot(), live)
	ds := m2.Snapshot().Lifecycle()
	if !ds.Durable || ds.ReplayedDocs != uint64(len(docs)-len(docs)/2) || ds.ReplayedTombs != 2 {
		t.Fatalf("durability stats after replay: %+v", ds)
	}
	if ds.Generation != 1 || ds.Recovery <= 0 {
		t.Fatalf("generation/recovery: %+v", ds)
	}

	// The reopened corpus keeps mutating durably.
	if _, err := m2.AddParsedDocument("after-restart.txt", docs[2].sents); err != nil {
		t.Fatal(err)
	}
	live = append(live, docRec{"after-restart.txt", docs[2].sents})
	checkLive(t, "post-restart ingest", m2.Snapshot(), live)
}

// TestDurableCompactThenRestart: a clean compaction folds delta and
// tombstones into a new shard generation, truncates the WAL, and the next
// open loads it all back without replaying anything.
func TestDurableCompactThenRestart(t *testing.T) {
	full := WrapCorpus(corpus.GenHappyDB(120, 7))
	docs := allDocs(full)
	dir := t.TempDir()
	m, live := durableFixture(t, dir, docs, full, wal.SyncNone)
	st, err := m.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st.Tombstones != 2 {
		t.Fatalf("compacted %d tombstones, want 2", st.Tombstones)
	}
	checkLive(t, "compacted", m.Snapshot(), live)
	ds := m.Snapshot().Lifecycle()
	if ds.Generation != 2 || ds.Swaps != 1 {
		t.Fatalf("after compact: %+v", ds)
	}
	if ds.WALBytes > 64 {
		t.Fatalf("WAL not truncated after compact: %d bytes", ds.WALBytes)
	}
	// Post-compact mutations land in the (fresh) WAL.
	if _, _, err := m.DeleteDocument(live[0].name); err != nil {
		t.Fatal(err)
	}
	victim := live[0].name
	live = withoutName(live, victim)
	m.Close()

	m2, err := OpenDurable(nil, DurableConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	checkLive(t, "post-restart", m2.Snapshot(), live)
	if ds := m2.Snapshot().Lifecycle(); ds.ReplayedDocs != 0 || ds.ReplayedTombs != 1 {
		t.Fatalf("replay after compact: %+v", ds)
	}
}

// TestDurableCrashPoints: simulate a crash at every injected stage of a
// durable compaction, abandon the instance, reopen the directory, and
// require the recovered corpus to match the reference exactly — whichever
// generation survived.
func TestDurableCrashPoints(t *testing.T) {
	full := WrapCorpus(corpus.GenHappyDB(120, 11))
	docs := allDocs(full)
	for _, stage := range []string{"mid-shard-write", "pre-manifest-swap", "post-manifest-swap", "pre-wal-truncate"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			m, live := durableFixture(t, dir, docs, full, wal.SyncBatch)
			boom := errors.New("injected crash")
			m.failpoint = func(s string) error {
				if s == stage {
					return boom
				}
				return nil
			}
			if _, err := m.Compact(); !errors.Is(err, boom) {
				t.Fatalf("compact at %s: %v", stage, err)
			}
			// The process "died": drop the instance without graceful close
			// (only the WAL handle is shared, and kill -9 semantics mean its
			// buffered state was already written — Append uses one write
			// syscall before returning).
			m.wal.Close()

			m2, err := OpenDurable(nil, DurableConfig{Dir: dir})
			if err != nil {
				t.Fatalf("reopen after %s: %v", stage, err)
			}
			defer m2.Close()
			checkLive(t, "recovered "+stage, m2.Snapshot(), live)

			// Recovery must leave a fully working corpus: mutate and compact.
			if _, err := m2.AddParsedDocument("post-crash.txt", docs[0].sents); err != nil {
				t.Fatal(err)
			}
			live = append(live, docRec{"post-crash.txt", docs[0].sents})
			if _, err := m2.Compact(); err != nil {
				t.Fatalf("compact after recovery: %v", err)
			}
			checkLive(t, "recompacted "+stage, m2.Snapshot(), live)
		})
	}
}

// TestDurableCloseDuringCompaction: Close while a background compaction is
// past the manifest swap but before its WAL truncation must wait for it, not
// pull the WAL out from under it (a nil dereference before the fix), and the
// directory must reopen identical to a from-scratch rebuild.
func TestDurableCloseDuringCompaction(t *testing.T) {
	full := WrapCorpus(corpus.GenHappyDB(120, 13))
	docs := allDocs(full)
	dir := t.TempDir()
	m, live := durableFixture(t, dir, docs, full, wal.SyncNone)

	parked, release := make(chan struct{}), make(chan struct{})
	m.failpoint = func(stage string) error {
		if stage == "pre-wal-truncate" {
			close(parked)
			<-release
		}
		return nil
	}
	compacted := make(chan error, 1)
	go func() {
		_, err := m.Compact()
		compacted <- err
	}()
	<-parked

	closed := make(chan error, 1)
	go func() { closed <- m.Close() }()
	// Close must not finish while the compaction is parked. The bounded wait
	// only gives a Close that does not wait (the defect) time to get ahead of
	// the compaction; with the fix either order of the two goroutines is safe.
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while a compaction was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-compacted; err != nil {
		t.Fatalf("compaction overlapped by Close: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := m.Compact(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Compact after Close: %v", err)
	}

	m2, err := OpenDurable(nil, DurableConfig{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close()
	checkLive(t, "reopened", m2.Snapshot(), live)
	if ds := m2.Snapshot().Lifecycle(); ds.Generation != 2 || ds.ReplayedDocs != 0 {
		t.Fatalf("reopen after compact+close: %+v", ds)
	}
}

// TestDurableTornWALTail: garbage appended to the WAL (a crash mid-append)
// is truncated on open and everything before it replays.
func TestDurableTornWALTail(t *testing.T) {
	full := WrapCorpus(corpus.GenHappyDB(100, 13))
	docs := allDocs(full)
	dir := t.TempDir()
	m, live := durableFixture(t, dir, docs, full, wal.SyncAlways)
	m.Close()

	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x99, 0x00, 0x00, 0x00, 0x12, 0x34, 0x56}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m2, err := OpenDurable(nil, DurableConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	checkLive(t, "torn-tail", m2.Snapshot(), live)
}

// TestDurableIncrementalCompaction: base shards without tombstones keep
// their exact files across a compaction — same name, same mtime — while
// tombstone-touched shards are rebuilt into the new generation and the old
// files are removed.
func TestDurableIncrementalCompaction(t *testing.T) {
	full := WrapCorpus(corpus.GenHappyDB(160, 17))
	docs := allDocs(full)
	dir := t.TempDir()
	seed := NewShardedEngine(full, 3, nil)
	m, err := OpenDurable(seed, DurableConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	live := append([]docRec(nil), docs...)

	// Record the seed generation's shard files.
	base := m.Snapshot().Base()
	if base.NumShards() != 3 {
		t.Fatalf("seed persisted as %d shards", base.NumShards())
	}
	lastSpec := base.specs[2]
	mtime := func(name string) int64 {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("stat %s: %v", name, err)
		}
		return st.ModTime().UnixNano()
	}
	t0, t1 := mtime("gen1.shard0"), mtime("gen1.shard1")
	requireBlockStores(t, dir, "gen*.shard*")

	// Ingest two docs and delete one document living in the LAST shard, so
	// shards 0 and 1 stay untouched.
	for _, name := range []string{"x.txt", "y.txt"} {
		if _, err := m.AddParsedDocument(name, docs[0].sents); err != nil {
			t.Fatal(err)
		}
		live = append(live, docRec{name, docs[0].sents})
	}
	victim := docs[lastSpec.LoDoc].name
	if _, _, err := m.DeleteDocument(victim); err != nil {
		t.Fatal(err)
	}
	live = withoutName(live, victim)

	if _, err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	checkLive(t, "incremental", m.Snapshot(), live)

	// Untouched shards: identical files, never rewritten.
	if got0, got1 := mtime("gen1.shard0"), mtime("gen1.shard1"); got0 != t0 || got1 != t1 {
		t.Fatalf("untouched shard files rewritten: %d/%d vs %d/%d", got0, got1, t0, t1)
	}
	// The touched shard moved to generation 2 and its old file is gone.
	if _, err := os.Stat(filepath.Join(dir, "gen1.shard2")); !os.IsNotExist(err) {
		t.Fatalf("obsolete shard file still present: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "gen2.shard2")); err != nil {
		t.Fatalf("rebuilt shard file missing: %v", err)
	}
	requireBlockStores(t, dir, "gen*.shard*")
	// A restart loads the mixed-generation manifest cleanly.
	m.Close()
	m2, err := OpenDurable(nil, DurableConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	checkLive(t, "mixed-gen restart", m2.Snapshot(), live)
}

// TestDurableEmptyAndFullDelete: a durable corpus born empty, filled, then
// fully emptied again stays consistent across compactions and restarts.
func TestDurableEmptyAndFullDelete(t *testing.T) {
	full := WrapCorpus(corpus.GenHappyDB(60, 19))
	docs := allDocs(full)
	dir := t.TempDir()
	m, err := OpenDurable(nil, DurableConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if n := m.Snapshot().NumDocuments(); n != 0 {
		t.Fatalf("empty durable corpus has %d docs", n)
	}
	requireBlockStores(t, dir, "gen*.shard*")
	for _, d := range docs[:3] {
		if _, err := m.AddParsedDocument(d.name, d.sents); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	requireBlockStores(t, dir, "gen*.shard*")
	for _, d := range docs[:3] {
		if _, _, err := m.DeleteDocument(d.name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	requireBlockStores(t, dir, "gen*.shard*")
	if n := m.Snapshot().NumDocuments(); n != 0 {
		t.Fatalf("fully deleted corpus has %d docs", n)
	}
	m.Close()
	m2, err := OpenDurable(nil, DurableConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if n := m2.Snapshot().NumDocuments(); n != 0 {
		t.Fatalf("restarted empty corpus has %d docs", n)
	}
	if _, err := m2.AddParsedDocument(docs[4].name, docs[4].sents); err != nil {
		t.Fatal(err)
	}
	checkLive(t, "refilled", m2.Snapshot(), []docRec{docs[4]})
}
