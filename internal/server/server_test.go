package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/koko"
)

const cafeQuery = `
	extract x:Entity from "blogs" if ()
	satisfying x (str(x) contains "Cafe" {1.0})
	with threshold 0.5`

const cityQuery = `extract a:GPE from "geo" if () satisfying a (a SimilarTo "city" {1.0})`

func newTestService(t *testing.T) *Service {
	t.Helper()
	svc := NewService(Config{MaxConcurrent: 4, CacheSize: 32})
	cafes := koko.NewEngine(koko.NewCorpus(
		[]string{"a.txt", "b.txt"},
		[]string{
			"Cafe Vita serves smooth espresso daily.",
			"Cafe Juanita hired a champion barista. The pastries are stale.",
		}), nil)
	svc.Registry().Register("cafes", cafes)
	cities := koko.NewEngine(koko.NewCorpus(nil, []string{
		"cities in asian countries such as Beijing and Tokyo.",
	}), nil)
	svc.Registry().Register("cities", cities)
	return svc
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

// TestHTTPEndToEnd drives every endpoint over real HTTP: query against two
// corpora, cache-hit on repeat, validate, corpora listing, stats, healthz,
// and metrics.
func TestHTTPEndToEnd(t *testing.T) {
	svc := newTestService(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// Query corpus 1: deterministic tuples.
	resp, body := postJSON(t, ts, "/v1/query", QueryRequest{Corpus: "cafes", Query: cafeQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}
	var q1 QueryResponse
	if err := json.Unmarshal(body, &q1); err != nil {
		t.Fatal(err)
	}
	if len(q1.Tuples) != 2 {
		t.Fatalf("cafes tuples = %v, want 2", q1.Tuples)
	}
	if got := []string{q1.Tuples[0].Values[0], q1.Tuples[1].Values[0]}; got[0] != "Cafe Vita" || got[1] != "Cafe Juanita" {
		t.Fatalf("cafes values = %v", got)
	}
	if q1.Cached {
		t.Error("first query reported cached")
	}
	if q1.Phases.Total <= 0 {
		t.Errorf("phase breakdown missing: %+v", q1.Phases)
	}

	// Identical query (different whitespace): cache hit, same tuples.
	_, body = postJSON(t, ts, "/v1/query", QueryRequest{
		Corpus: "cafes",
		Query:  "extract x:Entity from \"blogs\" if ()\n\t\tsatisfying x (str(x) contains \"Cafe\" {1.0}) with threshold 0.5",
	})
	var q2 QueryResponse
	if err := json.Unmarshal(body, &q2); err != nil {
		t.Fatal(err)
	}
	if !q2.Cached {
		t.Error("whitespace-variant repeat query missed the cache")
	}
	if len(q2.Tuples) != 2 || q2.Tuples[0].Values[0] != "Cafe Vita" {
		t.Fatalf("cached tuples differ: %v", q2.Tuples)
	}

	// Query corpus 2.
	resp, body = postJSON(t, ts, "/v1/query", QueryRequest{Corpus: "cities", Query: cityQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cities query status %d: %s", resp.StatusCode, body)
	}
	var q3 QueryResponse
	if err := json.Unmarshal(body, &q3); err != nil {
		t.Fatal(err)
	}
	if len(q3.Tuples) != 2 {
		t.Fatalf("cities tuples = %v, want Beijing and Tokyo", q3.Tuples)
	}

	// Explain toggles evidence per request.
	_, body = postJSON(t, ts, "/v1/query", QueryRequest{Corpus: "cafes", Query: cafeQuery, Explain: true})
	var q4 QueryResponse
	if err := json.Unmarshal(body, &q4); err != nil {
		t.Fatal(err)
	}
	if q4.Cached {
		t.Error("explain=true must not share the explain=false cache entry")
	}
	if len(q4.Tuples) == 0 || len(q4.Tuples[0].Evidence) == 0 {
		t.Fatalf("explain query returned no evidence: %+v", q4.Tuples)
	}

	// Unknown corpus -> 404; bad query -> 400.
	resp, _ = postJSON(t, ts, "/v1/query", QueryRequest{Corpus: "nope", Query: cafeQuery})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown corpus status = %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts, "/v1/query", QueryRequest{Corpus: "cafes", Query: "extract from if"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad query status = %d, want 400", resp.StatusCode)
	}
	// Reloading an in-memory corpus is a client error, not a server error.
	resp, _ = postJSON(t, ts, "/v1/corpora/cafes/reload", struct{}{})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("in-memory reload status = %d, want 409", resp.StatusCode)
	}

	// Validate: good and bad.
	_, body = postJSON(t, ts, "/v1/validate", map[string]string{"query": cafeQuery})
	var v validateResponse
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if !v.Valid || v.Canonical == "" {
		t.Errorf("validate(good) = %+v", v)
	}
	_, body = postJSON(t, ts, "/v1/validate", map[string]string{"query": "extract from if"})
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.Valid || v.Error == "" {
		t.Errorf("validate(bad) = %+v", v)
	}

	// Corpora listing.
	var listing struct {
		Corpora []CorpusInfo `json:"corpora"`
	}
	getJSON(t, ts, "/v1/corpora", &listing)
	if len(listing.Corpora) != 2 || listing.Corpora[0].Name != "cafes" || listing.Corpora[1].Name != "cities" {
		t.Fatalf("corpora = %+v", listing.Corpora)
	}
	if listing.Corpora[0].Documents != 2 || listing.Corpora[0].Sentences != 3 {
		t.Errorf("cafes info = %+v", listing.Corpora[0])
	}

	// Stats.
	var st statsResponse
	if resp := getJSON(t, ts, "/v1/corpora/cafes/stats", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	if st.Index.Words == 0 || st.Index.Entities == 0 {
		t.Errorf("stats = %+v", st.Index)
	}
	if resp := getJSON(t, ts, "/v1/corpora/nope/stats", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing-corpus stats status = %d, want 404", resp.StatusCode)
	}

	// Healthz and metrics.
	var hz struct {
		Status  string `json:"status"`
		Corpora int    `json:"corpora"`
	}
	getJSON(t, ts, "/v1/healthz", &hz)
	if hz.Status != "ok" || hz.Corpora != 2 {
		t.Errorf("healthz = %+v", hz)
	}
	var msnap MetricsSnapshot
	getJSON(t, ts, "/v1/metrics", &msnap)
	if msnap.QueriesTotal < 4 || msnap.CacheHits < 1 || msnap.CacheMisses < 3 {
		t.Errorf("metrics = %+v", msnap)
	}
}

// TestReloadInvalidatesCache persists a corpus, serves a cached query,
// rewrites the store, reloads, and checks the next query sees fresh data
// (generation bump must bypass stale entries).
func TestReloadInvalidatesCache(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.koko")
	save := func(texts []string) {
		eng := koko.NewEngine(koko.NewCorpus(nil, texts), nil)
		if err := eng.Save(path); err != nil {
			t.Fatal(err)
		}
	}
	save([]string{"Cafe Vita serves smooth espresso daily."})

	svc := NewService(Config{CacheSize: 8})
	if err := svc.Registry().LoadFile("c", path); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	q := `extract x:Entity from "f" if () satisfying x (str(x) contains "Cafe" {1.0}) with threshold 0.5`
	_, body := postJSON(t, ts, "/v1/query", QueryRequest{Corpus: "c", Query: q})
	var r1 QueryResponse
	if err := json.Unmarshal(body, &r1); err != nil {
		t.Fatal(err)
	}
	if len(r1.Tuples) != 1 || r1.Tuples[0].Values[0] != "Cafe Vita" {
		t.Fatalf("pre-reload tuples = %v", r1.Tuples)
	}
	// Warm the cache, then swap the store on disk and reload.
	_, body = postJSON(t, ts, "/v1/query", QueryRequest{Corpus: "c", Query: q})
	var r2 QueryResponse
	if err := json.Unmarshal(body, &r2); err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("repeat query missed cache")
	}
	save([]string{"Cafe Umbria opened a second location."})
	resp, body := postJSON(t, ts, "/v1/corpora/c/reload", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d: %s", resp.StatusCode, body)
	}
	var info CorpusInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Generation <= r1.Generation {
		t.Fatalf("generation not bumped: %d -> %d", r1.Generation, info.Generation)
	}

	_, body = postJSON(t, ts, "/v1/query", QueryRequest{Corpus: "c", Query: q})
	var r3 QueryResponse
	if err := json.Unmarshal(body, &r3); err != nil {
		t.Fatal(err)
	}
	if r3.Cached {
		t.Error("post-reload query served stale cache entry")
	}
	if len(r3.Tuples) != 1 || r3.Tuples[0].Values[0] != "Cafe Umbria" {
		t.Fatalf("post-reload tuples = %v", r3.Tuples)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

// ck is a cache key for unit tests of the cache's own bookkeeping.
func ck(name string) cacheKey { return cacheKey{corpus: name} }

// TestCacheDropCorpusExactName: deleting a corpus evicts its own cache
// entries and no other corpus's, even one whose name starts with the
// deleted name and a separator character.
func TestCacheDropCorpusExactName(t *testing.T) {
	svc := NewService(Config{CacheSize: 32})
	eng := koko.NewEngine(koko.NewCorpus(nil, []string{"Cafe Vita serves espresso daily."}), nil)
	for _, name := range []string{"a", "a|b"} {
		if err := svc.Registry().Register(name, eng); err != nil {
			t.Fatal(err)
		}
	}
	q := `extract x:Entity from "b" if () satisfying x (str(x) contains "Cafe" {1.0}) with threshold 0.5`
	ctx := context.Background()
	for _, name := range []string{"a", "a|b"} {
		if _, err := svc.Query(ctx, QueryRequest{Corpus: name, Query: q}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.DeleteCorpus("a"); err != nil {
		t.Fatal(err)
	}
	r, err := svc.Query(ctx, QueryRequest{Corpus: "a|b", Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Cached {
		t.Fatal(`deleting corpus "a" evicted the cache entries of corpus "a|b"`)
	}
	if n := svc.cache.len(); n != 1 {
		t.Fatalf("cache holds %d entries after the delete, want 1", n)
	}
}

// TestLRUEviction fills the cache past capacity and checks the oldest
// entry is evicted while recently used ones survive.
func TestLRUEviction(t *testing.T) {
	c := newResultCache(2, cacheMaxTuples)
	r := &koko.Result{}
	c.put(ck("a"), r)
	c.put(ck("b"), r)
	if _, ok := c.get(ck("a")); !ok { // a is now most recently used
		t.Fatal("a missing")
	}
	c.put(ck("c"), r) // evicts b
	if _, ok := c.get(ck("b")); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.get(ck("a")); !ok {
		t.Error("a should have survived (recently used)")
	}
	if _, ok := c.get(ck("c")); !ok {
		t.Error("c should be present")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}

// TestServiceQueryDirect exercises the Service path the CLI uses (no HTTP):
// cache hit on second call, NoCache bypass, context cancellation while
// waiting for a worker slot.
func TestServiceQueryDirect(t *testing.T) {
	svc := newTestService(t)
	ctx := context.Background()

	r1, err := svc.Query(ctx, QueryRequest{Corpus: "cafes", Query: cafeQuery})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := svc.Query(ctx, QueryRequest{Corpus: "cafes", Query: cafeQuery})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached || !r2.Cached {
		t.Errorf("cached flags = %t, %t; want false, true", r1.Cached, r2.Cached)
	}
	r3, err := svc.Query(ctx, QueryRequest{Corpus: "cafes", Query: cafeQuery, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if r3.Cached {
		t.Error("NoCache request reported cached")
	}

	// A canceled context must fail fast even when the pool is saturated.
	block := NewService(Config{MaxConcurrent: 1, CacheSize: -1})
	block.Registry().Register("cafes", koko.NewEngine(koko.NewCorpus(nil,
		[]string{"Cafe Vita serves smooth espresso daily."}), nil))
	block.sem <- struct{}{} // occupy the only slot
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := block.Query(canceled, QueryRequest{Corpus: "cafes", Query: cafeQuery}); err == nil {
		t.Error("expected context error when pool is saturated and ctx canceled")
	}
	<-block.sem
}

// TestConcurrentLoadSmoke fires parallel query mixes at one shared service
// over HTTP — the load-smoke test for the acceptance criterion. Run under
// -race it also proves cross-request engine safety at the service layer.
func TestConcurrentLoadSmoke(t *testing.T) {
	svc := newTestService(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	type job struct {
		corpus, query string
		wantTuples    int
	}
	jobs := []job{
		{"cafes", cafeQuery, 2},
		{"cities", cityQuery, 2},
	}
	const clients = 8
	const perClient = 6
	errs := make(chan error, clients)
	for cIdx := 0; cIdx < clients; cIdx++ {
		go func(cIdx int) {
			for i := 0; i < perClient; i++ {
				j := jobs[(cIdx+i)%len(jobs)]
				b, _ := json.Marshal(QueryRequest{Corpus: j.corpus, Query: j.query, Explain: i%2 == 0})
				resp, err := ts.Client().Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(b))
				if err != nil {
					errs <- err
					return
				}
				var qr QueryResponse
				err = json.NewDecoder(resp.Body).Decode(&qr)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
				if len(qr.Tuples) != j.wantTuples {
					errs <- fmt.Errorf("client %d: %s returned %d tuples, want %d",
						cIdx, j.corpus, len(qr.Tuples), j.wantTuples)
					return
				}
			}
			errs <- nil
		}(cIdx)
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	m := svc.Metrics()
	if m.QueriesTotal != clients*perClient {
		t.Errorf("queries_total = %d, want %d", m.QueriesTotal, clients*perClient)
	}
	if m.CacheHits == 0 {
		t.Error("expected cache hits under repeated load")
	}
	if m.InFlight != 0 {
		t.Errorf("in_flight = %d after drain, want 0", m.InFlight)
	}
}
