package koko

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/koko/index"
	"repro/internal/nlp"
)

// The ingestion differential suite: a mutable corpus built by ingesting
// documents one at a time — before and after compaction — must produce
// query results byte-identical to an engine rebuilt from scratch over the
// same documents, across the three corpus generators and K ∈ {1, 3} base
// shards, with queries racing ingestion and compaction under -race.

// prefixCorpus materializes documents [0, n) of c as a standalone corpus.
func prefixCorpus(c *Corpus, n int) *Corpus {
	out := &index.Corpus{}
	out.AppendDocsFrom(c.c, 0, n)
	return &Corpus{c: out}
}

// docSents copies document d's sentences out of c for re-ingestion.
func docSents(c *Corpus, d int) (string, []nlp.Sentence) {
	first, end := c.c.DocSentences(d)
	sents := make([]nlp.Sentence, end-first)
	copy(sents, c.c.Sentences[first:end])
	return c.c.Docs[d].Name, sents
}

func baseEngine(c *Corpus, k int) *Engine { return NewShardedEngine(c, k, nil) }

// concurrentMutable opens a memory-only corpus over base whose queries fan
// out at least two shards wide, before and after every compaction, so
// -race sees shards evaluating concurrently even on a one-CPU runner.
func concurrentMutable(t *testing.T, base Querier) *Mutable {
	t.Helper()
	m, err := OpenMutable(base, MutableConfig{ShardParallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMutableIngestDifferential: for every generator and K, start from a
// base over the first half of the documents, ingest the rest one at a time
// (holding the last one back until after compaction), and compare against
// from-scratch engines at every lifecycle stage: live delta, compacted
// base, and post-compaction delta.
func TestMutableIngestDifferential(t *testing.T) {
	for _, tc := range diffCases() {
		t.Run(tc.name, func(t *testing.T) {
			full := tc.corpus()
			nd := full.NumDocuments()
			if nd < 4 {
				t.Fatalf("generator yields only %d docs", nd)
			}
			ref := NewEngine(full, nil)
			refButLast := NewEngine(prefixCorpus(full, nd-1), nil)
			half := nd / 2
			for _, k := range []int{1, 3} {
				mut := concurrentMutable(t, baseEngine(prefixCorpus(full, half), k))

				// Ingest all but the last document one at a time.
				for d := half; d < nd-1; d++ {
					name, sents := docSents(full, d)
					if _, err := mut.AddParsedDocument(name, sents); err != nil {
						t.Fatalf("k=%d ingest doc %d: %v", k, d, err)
					}
				}
				snap := mut.Snapshot()
				if snap.NumDocuments() != nd-1 || snap.DeltaDocs() != nd-1-half {
					t.Fatalf("k=%d snapshot shape docs=%d delta=%d", k, snap.NumDocuments(), snap.DeltaDocs())
				}
				for qi, src := range tc.queries {
					for _, explain := range []bool{false, true} {
						qo := &QueryOptions{Explain: explain}
						label := fmt.Sprintf("k=%d live-delta q=%d explain=%t", k, qi, explain)
						sameResults(t, label, mustRun(t, refButLast, src, qo), mustRun(t, snap, src, qo))
					}
				}

				// Compact: the untouched base shards stay, and the delta
				// becomes one appended shard.
				baseShards := snap.Base().NumShards()
				st, err := mut.Compact()
				if err != nil {
					t.Fatalf("k=%d compact: %v", k, err)
				}
				if st.Docs != nd-1-half {
					t.Fatalf("k=%d compacted %d docs, want %d", k, st.Docs, nd-1-half)
				}
				snap = mut.Snapshot()
				if snap.DeltaDocs() != 0 {
					t.Fatalf("k=%d delta not empty after compact: %d", k, snap.DeltaDocs())
				}
				if snap.NumShards() != baseShards+1 {
					t.Fatalf("k=%d compacted %d base shards into %d, want %d", k, baseShards, snap.NumShards(), baseShards+1)
				}
				for qi, src := range tc.queries {
					qo := &QueryOptions{Explain: true}
					label := fmt.Sprintf("k=%d compacted q=%d", k, qi)
					sameResults(t, label, mustRun(t, refButLast, src, qo), mustRun(t, snap, src, qo))
				}

				// Ingest the held-back document into the fresh delta.
				name, sents := docSents(full, nd-1)
				if _, err := mut.AddParsedDocument(name, sents); err != nil {
					t.Fatalf("k=%d ingest last doc: %v", k, err)
				}
				snap = mut.Snapshot()
				if snap.NumDocuments() != nd || snap.DeltaDocs() != 1 {
					t.Fatalf("k=%d post-compact snapshot docs=%d delta=%d", k, snap.NumDocuments(), snap.DeltaDocs())
				}
				for qi, src := range tc.queries {
					qo := &QueryOptions{Explain: true}
					label := fmt.Sprintf("k=%d post-compact-delta q=%d", k, qi)
					sameResults(t, label, mustRun(t, ref, src, qo), mustRun(t, snap, src, qo))
				}

				// Shard-at-a-time execution (the job executor's path): the
				// concatenated StreamShard tuples equal the whole-query result.
				p, err := ParseQuery(tc.queries[0])
				if err != nil {
					t.Fatal(err)
				}
				got := &Result{}
				for si := 0; si < snap.NumShards(); si++ {
					if err := streamShardInto(got, snap, si, p, nil); err != nil {
						t.Fatalf("k=%d StreamShard(%d): %v", k, si, err)
					}
				}
				sameResults(t, fmt.Sprintf("k=%d shard-merge", k),
					mustRun(t, ref, tc.queries[0], nil), got)
			}
		})
	}
}

// TestMutableSnapshotPinning: a snapshot resolved before an ingest is
// permanently pinned to the corpus state it saw — the semantics that let a
// running job survive any number of ingests, compactions, and reloads.
func TestMutableSnapshotPinning(t *testing.T) {
	full := WrapCorpus(corpus.GenHappyDB(120, 3))
	nd := full.NumDocuments()
	src := `extract x:Str from "moments" if
		(/ROOT:{ a = //"ate", b = a/dobj, x = (b.subtree) } (b) eq (b))`

	mut := NewMutable(baseEngine(prefixCorpus(full, nd-2), 2), nil)
	pinned := mut.Snapshot()
	want := mustRun(t, pinned, src, nil)

	for d := nd - 2; d < nd; d++ {
		name, sents := docSents(full, d)
		if _, err := mut.AddParsedDocument(name, sents); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mut.Compact(); err != nil {
		t.Fatal(err)
	}
	// The pinned snapshot still answers from the pre-ingest corpus.
	sameResults(t, "pinned", want, mustRun(t, pinned, src, nil))
	if pinned.NumDocuments() != nd-2 {
		t.Fatalf("pinned snapshot grew to %d docs", pinned.NumDocuments())
	}
	// A fresh snapshot sees everything.
	cur := mut.Snapshot()
	if cur.NumDocuments() != nd {
		t.Fatalf("current snapshot has %d docs, want %d", cur.NumDocuments(), nd)
	}
	sameResults(t, "current", mustRun(t, NewEngine(full, nil), src, nil), mustRun(t, cur, src, nil))
}

// TestMutableConcurrentIngestCompactQuery: queries proceed on their
// snapshots while ingestion and compaction run concurrently (-race is the
// point). Each reader verifies its own snapshot is internally deterministic
// and its document count matches one of the states the writer produced.
func TestMutableConcurrentIngestCompactQuery(t *testing.T) {
	full := WrapCorpus(corpus.GenHappyDB(100, 7))
	nd := full.NumDocuments()
	half := nd / 2
	src := `extract o:Str from "moments" if (
		/ROOT:{ v = //verb, b = v/dobj, o = (b.subtree) })
		satisfying o ("ate" o {0.7}) or (o near "delicious" {1}) with threshold 0.2`

	mut := concurrentMutable(t, baseEngine(prefixCorpus(full, half), 2))
	var wg sync.WaitGroup
	ingestDone := make(chan struct{})
	wg.Add(1)
	go func() { // ingester
		defer wg.Done()
		defer close(ingestDone)
		for d := half; d < nd; d++ {
			name, sents := docSents(full, d)
			if _, err := mut.AddParsedDocument(name, sents); err != nil {
				panic(err)
			}
		}
	}()
	wg.Add(1)
	go func() { // compactor races the ingester
		defer wg.Done()
		for {
			select {
			case <-ingestDone:
				return
			default:
			}
			if _, err := mut.Compact(); err != nil {
				panic(err)
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() { // readers
			defer wg.Done()
			for {
				select {
				case <-ingestDone:
					return
				default:
				}
				snap := mut.Snapshot()
				a := mustRun(t, snap, src, nil)
				b := mustRun(t, snap, src, nil)
				if len(a.Tuples) != len(b.Tuples) {
					panic(fmt.Sprintf("snapshot nondeterministic: %d vs %d tuples", len(a.Tuples), len(b.Tuples)))
				}
				if n := snap.NumDocuments(); n < half || n > nd {
					panic(fmt.Sprintf("snapshot has %d docs outside [%d, %d]", n, half, nd))
				}
			}
		}()
	}
	wg.Wait()

	// Quiesced: one final compact, then the differential must hold exactly.
	if _, err := mut.Compact(); err != nil {
		t.Fatal(err)
	}
	snap := mut.Snapshot()
	if snap.NumDocuments() != nd || snap.DeltaDocs() != 0 {
		t.Fatalf("final snapshot docs=%d delta=%d", snap.NumDocuments(), snap.DeltaDocs())
	}
	sameResults(t, "final", mustRun(t, NewEngine(full, nil), src, nil), mustRun(t, snap, src, nil))
}

// TestReadersNeverWaitOnWriter: snapshots, their counts, and queries on
// them return while a writer holds the corpus's writer lock, and the
// writer's ingest lands once it lets go.
func TestReadersNeverWaitOnWriter(t *testing.T) {
	m := NewMutable(NewEngine(NewCorpus(nil, []string{"Cafe Vita serves espresso daily."}), nil), nil)
	defer m.Close()
	before := m.Snapshot()
	m.mu.Lock() // a writer parked inside the corpus
	ingested := make(chan error, 1)
	go func() {
		_, _, err := m.PutDocument("ladro.txt", "Cafe Ladro opened a new roastery downtown.")
		ingested <- err
	}()
	read := make(chan struct{})
	go func() {
		defer close(read)
		snap := m.Snapshot()
		if snap != before || snap.NumDocuments() != 1 || len(snap.ShardStats()) != 1 {
			t.Errorf("snapshot under a parked writer: seq %d, %d docs", snap.Seq(), snap.NumDocuments())
		}
		if _, err := snap.Query(happyQuery); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-read:
	case <-time.After(time.Second):
		t.Fatal("a reader waited on the parked writer")
	}
	m.mu.Unlock()
	if err := <-ingested; err != nil {
		t.Fatal(err)
	}
	if snap := m.Snapshot(); snap.NumDocuments() != 2 || snap.Seq() <= before.Seq() {
		t.Fatalf("after the ingest: seq %d, %d docs", snap.Seq(), snap.NumDocuments())
	}
}

// TestMutableDocumentNames: global document attribution spans base and
// delta seamlessly.
func TestMutableDocumentNames(t *testing.T) {
	full := WrapCorpus(corpus.GenHappyDB(40, 11))
	nd := full.NumDocuments()
	mut := NewMutable(baseEngine(prefixCorpus(full, nd-2), 2), nil)
	for d := nd - 2; d < nd; d++ {
		name, sents := docSents(full, d)
		if _, err := mut.AddParsedDocument(name, sents); err != nil {
			t.Fatal(err)
		}
	}
	snap := mut.Snapshot()
	for d := -1; d <= nd; d++ {
		if got, want := snap.DocumentName(d), full.DocumentName(d); got != want {
			t.Fatalf("DocumentName(%d) = %q, want %q", d, got, want)
		}
	}
	if snap.NumSentences() != full.NumSentences() {
		t.Fatalf("snapshot sentences %d, want %d", snap.NumSentences(), full.NumSentences())
	}
	ss := snap.ShardStats()
	last := ss[len(ss)-1]
	if !last.Delta || last.Documents != 2 {
		t.Fatalf("last shard stat should be the 2-doc delta: %+v", last)
	}
}

// TestMutableEmptyDocument: unparseable input is refused with the
// sentinel, and an unnamed document gets the positional default.
func TestMutableEmptyDocument(t *testing.T) {
	mut := NewMutable(NewEngine(NewCorpus(nil, []string{"Cafe Vita serves espresso."}), nil), nil)
	if _, _, err := mut.PutDocument("empty.txt", ""); !errors.Is(err, ErrEmptyDocument) {
		t.Fatalf("err = %v, want ErrEmptyDocument", err)
	}
	snap, _, err := mut.PutDocument("", "Cafe Umbria opened a second location.")
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.DocumentName(1); got != "doc1" {
		t.Fatalf("default name = %q, want doc1", got)
	}
}

// TestMutableSnapshotSave: a snapshot with live delta documents refuses to
// persist; after compaction it saves and round-trips.
func TestMutableSnapshotSave(t *testing.T) {
	mut := NewMutable(NewEngine(NewCorpus(nil, []string{"Cafe Vita serves espresso daily."}), nil), nil)
	if _, _, err := mut.PutDocument("new.txt", "Cafe Umbria opened a second location."); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mut.koko")
	if err := mut.Snapshot().Save(path); err == nil {
		t.Fatal("snapshot with delta docs saved")
	}
	if _, err := mut.Compact(); err != nil {
		t.Fatal(err)
	}
	snap := mut.Snapshot()
	if err := snap.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := `extract x:Entity from "blogs" if () satisfying x (str(x) contains "Cafe" {1.0}) with threshold 0.5`
	sameResults(t, "roundtrip", mustRun(t, snap, src, nil), mustRun(t, loaded, src, nil))
}
