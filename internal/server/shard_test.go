package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/koko"
)

func shardTestTexts(n int) ([]string, []string) {
	var names, texts []string
	for i := 0; i < n; i++ {
		names = append(names, fmt.Sprintf("doc%02d.txt", i))
		texts = append(texts, fmt.Sprintf(
			"Cafe Number%d serves smooth espresso daily. The barista pulled shot %d.", i, i))
	}
	return names, texts
}

// TestServiceShardedQuery routes a query through a sharded registry entry
// and checks the response matches the plain engine byte-for-byte, with
// shard metadata surfaced in /v1/corpora and /v1/stats.
func TestServiceShardedQuery(t *testing.T) {
	names, texts := shardTestTexts(8)
	c := koko.NewCorpus(names, texts)

	plainSvc := NewService(Config{CacheSize: -1})
	plainSvc.Registry().Register("cafes", koko.NewEngine(c, nil))
	shardSvc := NewService(Config{CacheSize: -1})
	se := koko.NewShardedEngine(c, 3, nil)
	shardSvc.Registry().Register("cafes", se)
	se.SetParallelism(3) // all shards at once, so -race sees concurrent evaluation

	req := QueryRequest{Corpus: "cafes", Query: cafeQuery, Explain: true}
	want, err := plainSvc.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := shardSvc.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Tuples) == 0 {
		t.Fatal("plain service returned no tuples")
	}
	if !reflect.DeepEqual(want.Tuples, got.Tuples) {
		t.Fatalf("sharded tuples differ:\n got %+v\nwant %+v", got.Tuples, want.Tuples)
	}
	if want.Candidates != got.Candidates || want.Matched != got.Matched {
		t.Errorf("counts differ: %d/%d vs %d/%d", got.Candidates, got.Matched, want.Candidates, want.Matched)
	}

	ts := httptest.NewServer(shardSvc.Handler())
	defer ts.Close()
	var listing struct {
		Corpora []CorpusInfo `json:"corpora"`
	}
	getJSON(t, ts, "/v1/corpora", &listing)
	if len(listing.Corpora) != 1 || listing.Corpora[0].Shards != 3 {
		t.Fatalf("corpora = %+v, want one entry with 3 shards", listing.Corpora)
	}
	if listing.Corpora[0].Documents != 8 {
		t.Errorf("documents = %d, want 8", listing.Corpora[0].Documents)
	}

	var st statsResponse
	getJSON(t, ts, "/v1/corpora/cafes/stats", &st)
	if len(st.Shards) != 3 {
		t.Fatalf("shard_stats = %+v, want 3 entries", st.Shards)
	}
	docs, words := 0, 0
	for i, ss := range st.Shards {
		if ss.Shard != i || ss.Documents == 0 || ss.Index.Words == 0 {
			t.Errorf("shard stat %d = %+v", i, ss)
		}
		docs += ss.Documents
		words += ss.Index.Words
	}
	if docs != 8 {
		t.Errorf("shard docs sum to %d, want 8", docs)
	}
	if st.Index.Words != words {
		t.Errorf("aggregate words %d != per-shard sum %d", st.Index.Words, words)
	}
}

// TestRegistryLoadFileSharded: a plain store loaded into a registry with a
// default shard count comes up sharded; reload swaps the whole shard set
// atomically at one new generation; a persisted sharded manifest keeps its
// on-disk shard count regardless of the registry default.
func TestRegistryLoadFileSharded(t *testing.T) {
	dir := t.TempDir()
	plainPath := filepath.Join(dir, "plain.koko")
	names, texts := shardTestTexts(6)
	if err := koko.NewEngine(koko.NewCorpus(names, texts), nil).Save(plainPath); err != nil {
		t.Fatal(err)
	}

	svc := NewService(Config{CacheSize: 8, Shards: 3})
	if err := svc.Registry().LoadFile("plain", plainPath); err != nil {
		t.Fatal(err)
	}
	info, err := svc.Registry().Info("plain")
	if err != nil {
		t.Fatal(err)
	}
	if info.Shards != 3 {
		t.Fatalf("plain store loaded with %d shards, want 3 (registry default)", info.Shards)
	}

	// Query, warm the cache, rewrite the store, reload: new generation, new
	// data, still sharded.
	q := `extract x:Entity from "f" if () satisfying x (str(x) contains "Cafe" {1.0}) with threshold 0.5`
	r1, err := svc.Query(context.Background(), QueryRequest{Corpus: "plain", Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Tuples) != 6 {
		t.Fatalf("pre-reload tuples = %d, want 6", len(r1.Tuples))
	}
	names2, texts2 := shardTestTexts(4)
	if err := koko.NewEngine(koko.NewCorpus(names2, texts2), nil).Save(plainPath); err != nil {
		t.Fatal(err)
	}
	info2, err := svc.Reload("plain")
	if err != nil {
		t.Fatal(err)
	}
	if info2.Generation <= info.Generation || info2.Shards != 3 {
		t.Fatalf("reload info = %+v (was gen=%d)", info2, info.Generation)
	}
	r2, err := svc.Query(context.Background(), QueryRequest{Corpus: "plain", Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cached || len(r2.Tuples) != 4 {
		t.Fatalf("post-reload: cached=%t tuples=%d, want fresh 4", r2.Cached, len(r2.Tuples))
	}

	// A sharded manifest keeps its own shard count (2), even though the
	// registry default is 3.
	manifestPath := filepath.Join(dir, "manifest.koko")
	if err := koko.NewShardedEngine(koko.NewCorpus(names, texts), 2, nil).Save(manifestPath); err != nil {
		t.Fatal(err)
	}
	if err := svc.Registry().LoadFile("manifest", manifestPath); err != nil {
		t.Fatal(err)
	}
	minfo, err := svc.Registry().Info("manifest")
	if err != nil {
		t.Fatal(err)
	}
	if minfo.Shards != 2 {
		t.Fatalf("manifest loaded with %d shards, want its on-disk 2", minfo.Shards)
	}
	mi, err := svc.Reload("manifest")
	if err != nil {
		t.Fatal(err)
	}
	if mi.Shards != 2 || mi.Generation <= minfo.Generation {
		t.Fatalf("manifest reload = %+v", mi)
	}
}

// TestShardParallelPolicy: the service bounds per-query shard fan-out
// inversely with its pool size so concurrent requests cannot oversubscribe
// the CPU.
func TestShardParallelPolicy(t *testing.T) {
	names, texts := shardTestTexts(6)
	c := koko.NewCorpus(names, texts)

	// A pool of 1 hands the whole 2×GOMAXPROCS budget to the single
	// in-flight query.
	svc := NewService(Config{MaxConcurrent: 1})
	se := koko.NewShardedEngine(c, 3, nil)
	svc.Registry().Register("s", se)
	if want := 2 * runtime.GOMAXPROCS(0); se.Parallelism() != want {
		t.Fatalf("auto shard parallelism = %d, want %d", se.Parallelism(), want)
	}
}

// TestRegistryListDeterministic: List is sorted by name no matter the
// insertion order, so /v1/corpora output is stable.
func TestRegistryListDeterministic(t *testing.T) {
	reg := NewRegistry(nil)
	eng := koko.NewEngine(koko.NewCorpus(nil, []string{"Cafe Vita serves espresso."}), nil)
	for _, name := range []string{"zeta", "alpha", "mike", "beta", "omega", "delta"} {
		reg.Register(name, eng)
	}
	want := []string{"alpha", "beta", "delta", "mike", "omega", "zeta"}
	for trial := 0; trial < 3; trial++ {
		got := reg.List()
		if len(got) != len(want) {
			t.Fatalf("len = %d, want %d", len(got), len(want))
		}
		for i, info := range got {
			if info.Name != want[i] {
				t.Fatalf("trial %d: List()[%d] = %q, want %q", trial, i, info.Name, want[i])
			}
		}
	}
}

// TestCacheTupleBudget: the cache evicts LRU entries until the total cached
// tuple count fits the budget, and refuses to retain a single result larger
// than the whole budget.
func TestCacheTupleBudget(t *testing.T) {
	mkRes := func(n int) *drained {
		ts := make([]koko.Tuple, n)
		for i := range ts {
			ts[i].SentenceID = i
		}
		return &drained{sum: &koko.Result{}, tuples: n, batches: []koko.Batch{koko.BatchOf(ts)}, held: true}
	}
	c := newResultCache(100, 10)

	c.put(ck("a"), mkRes(4))
	c.put(ck("b"), mkRes(4))
	if c.len() != 2 || c.tupleCount() != 8 {
		t.Fatalf("len=%d tuples=%d, want 2/8", c.len(), c.tupleCount())
	}
	// +4 tuples exceeds 10: the LRU entry "a" must go.
	c.put(ck("c"), mkRes(4))
	if _, ok := c.get(ck("a")); ok {
		t.Error("a should have been evicted by the tuple budget")
	}
	if _, ok := c.get(ck("b")); !ok {
		t.Error("b should survive")
	}
	if c.tupleCount() != 8 {
		t.Errorf("tuples = %d, want 8", c.tupleCount())
	}

	// An oversized result is refused at admission — and must NOT drain the
	// warm entries to make room for something that can never fit.
	c.put(ck("huge"), mkRes(50))
	if _, ok := c.get(ck("huge")); ok {
		t.Error("oversized result must not be retained")
	}
	if _, ok := c.get(ck("b")); !ok {
		t.Error("b should survive an oversized put")
	}
	if _, ok := c.get(ck("c")); !ok {
		t.Error("c should survive an oversized put")
	}
	if c.tupleCount() > 10 {
		t.Errorf("tuples = %d over budget", c.tupleCount())
	}
	// An oversized replacement drops the stale entry under the same key.
	c.put(ck("b"), mkRes(50))
	if _, ok := c.get(ck("b")); ok {
		t.Error("oversized replacement must evict the stale entry")
	}

	// Replacing an entry adjusts the accounting instead of double counting.
	c2 := newResultCache(100, 10)
	c2.put(ck("k"), mkRes(3))
	c2.put(ck("k"), mkRes(5))
	if c2.len() != 1 || c2.tupleCount() != 5 {
		t.Errorf("after replace: len=%d tuples=%d, want 1/5", c2.len(), c2.tupleCount())
	}

	// Zero-tuple results still obey the entry bound.
	c3 := newResultCache(2, 10)
	c3.put(ck("x"), mkRes(0))
	c3.put(ck("y"), mkRes(0))
	c3.put(ck("z"), mkRes(0))
	if c3.len() != 2 {
		t.Errorf("entry bound ignored: len=%d", c3.len())
	}
}

// TestServiceCacheTupleMetric: the metrics snapshot reports the tuples
// held across cache entries at the service's default tuple budget. Results
// larger than the budget are covered by the resultCache unit tests above.
func TestServiceCacheTupleMetric(t *testing.T) {
	names, texts := shardTestTexts(5)
	svc := NewService(Config{CacheSize: 32})
	svc.Registry().Register("cafes", koko.NewEngine(koko.NewCorpus(names, texts), nil))

	small := `extract x:Entity from "f" if () satisfying x (str(x) contains "Number1" {1.0}) with threshold 0.5`
	held := 0
	for _, q := range []string{cafeQuery, small} {
		if _, err := svc.Query(context.Background(), QueryRequest{Corpus: "cafes", Query: q}); err != nil {
			t.Fatal(err)
		}
		r, err := svc.Query(context.Background(), QueryRequest{Corpus: "cafes", Query: q})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Cached {
			t.Errorf("%q: repeat not served from the cache", q)
		}
		held += len(r.Tuples)
		if m := svc.Metrics(); m.CacheTuples != held {
			t.Errorf("cache_tuples = %d, want %d", m.CacheTuples, held)
		}
	}
	if held <= 5 {
		t.Fatalf("cached %d tuples, want the 5-tuple cafe result plus the small one", held)
	}
}
