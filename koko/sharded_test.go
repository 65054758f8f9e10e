package koko

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/corpus"
)

// The differential suite: for every corpus generator and every shard count,
// ShardedEngine must produce byte-identical results to a single Engine over
// the unpartitioned corpus — tuples, values, scores, evidence, and global
// document/sentence attribution — with Workers > 1 inside every shard (so
// `go test -race` also exercises the nested parallelism).

var diffShardCounts = []int{1, 2, 3, 7}

type diffCase struct {
	name    string
	corpus  func() *Corpus
	queries []string
}

func diffCases() []diffCase {
	return []diffCase{
		{
			name:   "cafes",
			corpus: func() *Corpus { return WrapCorpus(corpus.GenCafes(corpus.BaristaMagConfig(11)).Corpus) },
			queries: []string{
				`extract x:Entity from "blogs" if ()
				 satisfying x
				 (str(x) contains "Cafe" {0.6}) or
				 (x [["serves coffee"]] {0.3}) or
				 (x [["hired barista"]] {0.3})
				 with threshold 0.5
				 excluding (str(x) matches "[a-z 0-9.]+")`,
				`extract x:Entity from "blogs" if () satisfying x (x near "espresso" {1}) with threshold 0.4`,
			},
		},
		{
			name:   "tweets",
			corpus: func() *Corpus { return WrapCorpus(corpus.GenWNUT(corpus.WNUTConfig{Tweets: 150, Seed: 7}).Corpus) },
			queries: []string{
				`extract x:Entity from "tweets" if ()
				 satisfying x
				 (x "vs" {0.9}) or ("vs" x {0.9}) or ("go" x {0.9})
				 with threshold 0.5`,
				`extract x:Entity from "tweets" if ()
				 satisfying x ("at" x {1}) with threshold 0.5
				 excluding (str(x) contains "pm")`,
			},
		},
		{
			name:   "happydb",
			corpus: func() *Corpus { return WrapCorpus(corpus.GenHappyDB(300, 3)) },
			queries: []string{
				`extract e:Entity, d:Str from "moments" if
				 (/ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) } (b) in (e))`,
				`extract x:Str from "moments" if
				 (/ROOT:{ a = //"ate", b = a/dobj, x = (b.subtree) } (b) eq (b))`,
				`extract o:Str from "moments" if (
				 /ROOT:{ v = //verb, b = v/dobj, o = (b.subtree) })
				 satisfying o ("ate" o {0.7}) or (o near "delicious" {1}) with threshold 0.2`,
			},
		},
	}
}

func mustRun(t *testing.T, q Querier, src string, qo *QueryOptions) *Result {
	t.Helper()
	res, err := query(q, src, qo)
	if err != nil {
		t.Fatalf("query failed: %v\n%s", err, src)
	}
	return res
}

// sameResults compares everything except timing.
func sameResults(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if want.Candidates != got.Candidates || want.Matched != got.Matched {
		t.Errorf("%s: candidates/matched = %d/%d, want %d/%d",
			label, got.Candidates, got.Matched, want.Candidates, want.Matched)
	}
	if len(want.Tuples) != len(got.Tuples) {
		t.Fatalf("%s: %d tuples, want %d", label, len(got.Tuples), len(want.Tuples))
	}
	for i := range want.Tuples {
		if !reflect.DeepEqual(want.Tuples[i], got.Tuples[i]) {
			t.Fatalf("%s: tuple %d differs:\n got %+v\nwant %+v", label, i, got.Tuples[i], want.Tuples[i])
		}
	}
}

// TestShardedDifferential: K ∈ {1,2,3,7} shards over three generators, each
// query run plain and with Explain, per-shard Workers=2.
func TestShardedDifferential(t *testing.T) {
	for _, tc := range diffCases() {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.corpus()
			ref := NewEngine(c, nil)
			refTuples := 0
			for _, src := range tc.queries {
				refTuples += len(mustRun(t, ref, src, nil).Tuples)
			}
			if refTuples == 0 {
				t.Fatal("workload produces no tuples; differential test is vacuous")
			}
			for _, k := range diffShardCounts {
				sharded := NewShardedEngine(c, k, nil)
				if k <= c.NumDocuments() && sharded.NumShards() != k {
					t.Fatalf("k=%d: got %d shards", k, sharded.NumShards())
				}
				if sharded.NumDocuments() != c.NumDocuments() || sharded.NumSentences() != c.NumSentences() {
					t.Fatalf("k=%d: sharded corpus %d docs/%d sents, want %d/%d", k,
						sharded.NumDocuments(), sharded.NumSentences(), c.NumDocuments(), c.NumSentences())
				}
				for qi, src := range tc.queries {
					for _, explain := range []bool{false, true} {
						qo := &QueryOptions{Workers: 2, Explain: explain}
						label := fmt.Sprintf("k=%d q=%d explain=%t", k, qi, explain)
						sameResults(t, label, mustRun(t, ref, src, qo), mustRun(t, sharded, src, qo))
					}
				}
			}
		})
	}
}

// TestShardedDocumentAttribution: rebased tuple document ids must resolve
// to the same document names the single engine reports, and DocumentName
// must agree across the whole doc space.
func TestShardedDocumentAttribution(t *testing.T) {
	c := WrapCorpus(corpus.GenHappyDB(120, 5))
	ref := NewEngine(c, nil)
	sharded := NewShardedEngine(c, 3, nil)
	for d := -1; d <= c.NumDocuments(); d++ {
		if got, want := sharded.DocumentName(d), c.DocumentName(d); got != want {
			t.Fatalf("DocumentName(%d) = %q, want %q", d, got, want)
		}
	}
	src := `extract x:Str from "moments" if (/ROOT:{ a = //"ate", b = a/dobj, x = (b.subtree) })`
	want := mustRun(t, ref, src, nil)
	got := mustRun(t, sharded, src, nil)
	if len(want.Tuples) == 0 {
		t.Fatal("workload produced no tuples")
	}
	for i := range want.Tuples {
		if want.Tuples[i].Document != got.Tuples[i].Document ||
			want.Tuples[i].SentenceID != got.Tuples[i].SentenceID {
			t.Fatalf("tuple %d attribution: got doc=%d sid=%d, want doc=%d sid=%d",
				i, got.Tuples[i].Document, got.Tuples[i].SentenceID,
				want.Tuples[i].Document, want.Tuples[i].SentenceID)
		}
	}
}

// TestShardedSaveLoadRoundtrip: Save writes a manifest + per-shard stores;
// LoadSharded and Open both reopen the set and reproduce the in-memory
// sharded engine's results exactly.
func TestShardedSaveLoadRoundtrip(t *testing.T) {
	texts := []string{
		"Anna ate some delicious cheesecake that she bought at a grocery store.",
		"I ate a chocolate ice cream, which was delicious, and also ate a pie.",
		"Cafe Vita serves smooth espresso daily. The barista pulled a perfect shot.",
		"Cafe Umbria opened a second location near the waterfront park.",
	}
	c := NewCorpus(nil, texts)
	mem := NewShardedEngine(c, 2, nil)
	if mem.NumShards() != 2 {
		t.Fatalf("shards = %d", mem.NumShards())
	}
	path := filepath.Join(t.TempDir(), "corpus.koko")
	if err := mem.Save(path); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadSharded(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := opened.(*ShardedEngine); !ok {
		t.Fatalf("Open returned %T, want *ShardedEngine", opened)
	}
	// Load on a manifest must refuse with a helpful error.
	if _, err := Load(path, nil); err == nil {
		t.Fatal("Load accepted a sharded manifest")
	}

	src := `extract x:Str from f if (/ROOT:{ x = //verb/dobj })`
	want := mustRun(t, mem, src, nil)
	for _, q := range []Querier{loaded, opened} {
		got := mustRun(t, q, src, nil)
		sameResults(t, "roundtrip", want, got)
	}
	if loaded.NumShards() != 2 || loaded.NumDocuments() != len(texts) {
		t.Fatalf("loaded shape: %d shards, %d docs", loaded.NumShards(), loaded.NumDocuments())
	}

	// Open on a plain store still yields a plain engine.
	plainPath := filepath.Join(t.TempDir(), "plain.koko")
	if err := NewEngine(c, nil).Save(plainPath); err != nil {
		t.Fatal(err)
	}
	q, err := Open(plainPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q.(*Engine); !ok {
		t.Fatalf("Open(plain) returned %T, want *Engine", q)
	}
}

// TestShardedLoadMismatch: a shard file whose shape disagrees with the
// manifest spec is refused at load — accepting it would silently rebase
// tuples onto the wrong global document/sentence ids.
func TestShardedLoadMismatch(t *testing.T) {
	dir := t.TempDir()
	c := NewCorpus(nil, []string{
		"Cafe Vita serves espresso.", "Cafe Umbria opened.", "Cafe Ladro debuts.",
	})
	path := filepath.Join(dir, "a.koko")
	if err := NewShardedEngine(c, 2, nil).Save(path); err != nil {
		t.Fatal(err)
	}
	// Swap shard 1 for a store of a different shape (stale file scenario).
	other := NewEngine(NewCorpus(nil, []string{"One thing. Two things. Three things. Four things."}), nil)
	if err := other.Save(path + ".shard1"); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSharded(path, nil); err == nil {
		t.Fatal("mismatched shard file accepted")
	}
}

// TestShardedStats: merged stats sum per-shard sizes and ShardStats lines
// up with the specs.
func TestShardedStats(t *testing.T) {
	c := WrapCorpus(corpus.GenHappyDB(60, 9))
	e := NewShardedEngine(c, 3, nil)
	ss := e.ShardStats()
	if len(ss) != e.NumShards() {
		t.Fatalf("ShardStats len %d, shards %d", len(ss), e.NumShards())
	}
	docs, sents, words := 0, 0, 0
	for i, s := range ss {
		if s.Shard != i {
			t.Errorf("shard stat %d has Shard=%d", i, s.Shard)
		}
		if s.Documents == 0 || s.Sentences == 0 || s.Index.Words == 0 {
			t.Errorf("shard %d stats empty: %+v", i, s)
		}
		docs += s.Documents
		sents += s.Sentences
		words += s.Index.Words
	}
	if docs != c.NumDocuments() || sents != c.NumSentences() {
		t.Errorf("shard stats cover %d docs/%d sents, want %d/%d", docs, sents, c.NumDocuments(), c.NumSentences())
	}
	if got := e.Stats(); got.Words != words {
		t.Errorf("merged Words = %d, want per-shard sum %d", got.Words, words)
	}
	// A plain engine's ShardStats is a one-element view of itself.
	plain := NewEngine(c, nil)
	ps := plain.ShardStats()
	if len(ps) != 1 || ps[0].Documents != c.NumDocuments() || ps[0].Index.Words != plain.Stats().Words {
		t.Errorf("plain ShardStats = %+v", ps)
	}
}

// TestShardedConcurrentQueries: one ShardedEngine shared by goroutines with
// mixed options must stay deterministic (run under -race).
func TestShardedConcurrentQueries(t *testing.T) {
	c := WrapCorpus(corpus.GenHappyDB(150, 13))
	e := NewShardedEngine(c, 4, nil)
	src := `extract o:Str from "moments" if (
		/ROOT:{ v = //verb, b = v/dobj, o = (b.subtree) })
		satisfying o ("ate" o {0.7}) or (o near "delicious" {1}) with threshold 0.2`
	want := mustRun(t, e, src, nil)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 4; i++ {
				res, err := query(e, src, &QueryOptions{Workers: 1 + g%3})
				if err != nil {
					done <- err
					return
				}
				if len(res.Tuples) != len(want.Tuples) {
					done <- fmt.Errorf("goroutine %d: %d tuples, want %d", g, len(res.Tuples), len(want.Tuples))
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedQueryError: a parse-stage failure inside the shards propagates
// as one error, not a panic or partial result.
func TestShardedQueryError(t *testing.T) {
	c := NewCorpus(nil, []string{"Cafe Vita serves espresso.", "Cafe Umbria opened."})
	e := NewShardedEngine(c, 2, nil)
	if _, err := e.Query(`select * from nope`); err == nil {
		t.Fatal("malformed query accepted")
	}
}
