package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/server/jobs"
	"repro/koko"
)

// hasValue reports whether any tuple carries the given extracted value.
func hasValue(tuples []TupleResult, v string) bool {
	for _, t := range tuples {
		for _, val := range t.Values {
			if val == v {
				return true
			}
		}
	}
	return false
}

// TestServiceIngestCompactLifecycle: ingest a document, see it at a new
// generation (cache invalidated), compact, and see byte-identical tuples
// with the delta folded away.
func TestServiceIngestCompactLifecycle(t *testing.T) {
	svc := NewService(Config{MaxConcurrent: 4, CacheSize: 32, Shards: 2})
	RegisterDemoCorpora(svc.Registry(), 2)
	ctx := context.Background()
	req := QueryRequest{Corpus: "demo-cafes", Query: DemoQueries["demo-cafes"]}

	before, err := svc.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if hasValue(before.Tuples, "Cafe Ladro") {
		t.Fatal("new cafe visible before ingest")
	}
	// Warm the cache.
	if resp, _ := svc.Query(ctx, req); !resp.Cached {
		t.Fatal("repeat query not cached")
	}

	info, doc, _, err := svc.Ingest("demo-cafes", "ladro.txt", "Cafe Ladro opened a new roastery downtown.")
	if err != nil {
		t.Fatal(err)
	}
	if info.DeltaDocs != 1 || info.Ingests != 1 || info.Generation <= before.Generation {
		t.Fatalf("post-ingest info: %+v", info)
	}
	if info.Documents != 3 { // demo-cafes has 2 docs; the ingest makes 3
		t.Fatalf("documents = %d, want 3", info.Documents)
	}
	if doc != 2 {
		t.Fatalf("ingested doc index = %d, want 2", doc)
	}

	after, err := svc.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if after.Cached {
		t.Fatal("ingest did not invalidate the cache (generation key)")
	}
	if !hasValue(after.Tuples, "Cafe Ladro") {
		t.Fatalf("ingested document not visible: %+v", after.Tuples)
	}
	if after.Generation != info.Generation {
		t.Fatalf("query generation %d, ingest generation %d", after.Generation, info.Generation)
	}

	cinfo, st, err := svc.Compact("demo-cafes")
	if err != nil {
		t.Fatal(err)
	}
	if st.Docs != 1 || cinfo.DeltaDocs != 0 || cinfo.Compactions != 1 {
		t.Fatalf("compact stats %+v info %+v", st, cinfo)
	}
	compacted, err := svc.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(compacted.Tuples) != len(after.Tuples) {
		t.Fatalf("compaction changed results: %d vs %d tuples", len(compacted.Tuples), len(after.Tuples))
	}
	for i := range after.Tuples {
		a, b := after.Tuples[i], compacted.Tuples[i]
		if a.SentenceID != b.SentenceID || a.Document != b.Document || a.Values[0] != b.Values[0] {
			t.Fatalf("tuple %d differs after compaction: %+v vs %+v", i, a, b)
		}
	}
	// Second compact is a no-op.
	if _, st, err := svc.Compact("demo-cafes"); err != nil || st.Docs != 0 {
		t.Fatalf("no-op compact: %+v, %v", st, err)
	}

	m := svc.Metrics()
	if m.IngestsTotal != 1 || m.CompactionsTotal != 1 || m.DeltaDocs != 0 {
		t.Fatalf("metrics %+v", m)
	}
}

// TestHTTPIngestCompactDelete drives the mutable-corpus surface over real
// HTTP: ingest -> query -> compact -> query -> stats -> delete -> 404.
func TestHTTPIngestCompactDelete(t *testing.T) {
	svc := NewService(Config{MaxConcurrent: 4, CacheSize: 32})
	RegisterDemoCorpora(svc.Registry(), 3)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var ing IngestResponse
	resp, body := postJSON(t, ts, "/v1/corpora/demo-cafes/documents",
		IngestRequest{Name: "ladro.txt", Text: "Cafe Ladro opened a new roastery downtown."})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
	}
	mustUnmarshal(t, body, &ing)
	if ing.Corpus.DeltaDocs != 1 || ing.Document != 2 {
		t.Fatalf("ingest response %+v", ing)
	}

	var q QueryResponse
	resp, body = postJSON(t, ts, "/v1/query", QueryRequest{Corpus: "demo-cafes", Query: DemoQueries["demo-cafes"]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}
	mustUnmarshal(t, body, &q)
	if !hasValue(q.Tuples, "Cafe Ladro") {
		t.Fatalf("ingested doc missing from HTTP query: %s", body)
	}

	// Stats shows the delta as the trailing shard.
	var st statsResponse
	getJSON(t, ts, "/v1/corpora/demo-cafes/stats", &st)
	if st.DeltaDocs != 1 || st.Ingests != 1 {
		t.Fatalf("stats %+v", st.CorpusInfo)
	}
	lastShard := st.Shards[len(st.Shards)-1]
	if !lastShard.Delta || lastShard.Documents != 1 {
		t.Fatalf("trailing shard not the delta: %+v", lastShard)
	}

	var comp CompactResponse
	resp, body = postJSON(t, ts, "/v1/corpora/demo-cafes/compact", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact status %d: %s", resp.StatusCode, body)
	}
	mustUnmarshal(t, body, &comp)
	if comp.CompactedDocs != 1 || comp.Corpus.DeltaDocs != 0 || comp.Corpus.Compactions != 1 {
		t.Fatalf("compact response %+v", comp)
	}
	var q2 QueryResponse
	_, body = postJSON(t, ts, "/v1/query", QueryRequest{Corpus: "demo-cafes", Query: DemoQueries["demo-cafes"]})
	mustUnmarshal(t, body, &q2)
	if !hasValue(q2.Tuples, "Cafe Ladro") || len(q2.Tuples) != len(q.Tuples) {
		t.Fatalf("post-compact query differs: %s", body)
	}

	// Empty text is a 400.
	resp, _ = postJSON(t, ts, "/v1/corpora/demo-cafes/documents", IngestRequest{Text: ""})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty text status %d", resp.StatusCode)
	}
	// Unknown corpus is a 404.
	resp, _ = postJSON(t, ts, "/v1/corpora/nope/documents", IngestRequest{Text: "Hello there."})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown corpus ingest status %d", resp.StatusCode)
	}

	// Delete: the corpus disappears for queries, ingests, and jobs.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/corpora/demo-food", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts, "/v1/query", QueryRequest{Corpus: "demo-food", Query: DemoQueries["demo-food"]})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("query after delete status %d", resp.StatusCode)
	}
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete status %d", resp.StatusCode)
	}
	var m MetricsSnapshot
	getJSON(t, ts, "/v1/metrics", &m)
	if m.CorporaDeleted != 1 || m.IngestsTotal != 1 || m.CompactionsTotal != 1 {
		t.Fatalf("metrics %+v", m)
	}
}

// TestJobPinnedAcrossIngest: a job's engine and generation are captured at
// submit; ingesting (and compacting) while it exists never changes what the
// job evaluates.
func TestJobPinnedAcrossIngest(t *testing.T) {
	svc := NewService(Config{MaxConcurrent: 2, CacheSize: -1})
	RegisterDemoCorpora(svc.Registry(), 2)
	ctx := context.Background()

	want, err := svc.Query(ctx, QueryRequest{Corpus: "demo-cafes", Query: DemoQueries["demo-cafes"], NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc.Jobs().Submit(jobs.Spec{Corpus: "demo-cafes", Queries: []string{DemoQueries["demo-cafes"]}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := svc.Ingest("demo-cafes", "ladro.txt", "Cafe Ladro opened a new roastery downtown."); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.Compact("demo-cafes"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, err := svc.Jobs().Get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State.Terminal() {
			if cur.State != jobs.StateDone {
				t.Fatalf("job ended %s: %s", cur.State, cur.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	res, err := svc.Jobs().Results(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != want.Generation {
		t.Fatalf("job ran at generation %d, want pinned %d", res.Generation, want.Generation)
	}
	got := res.Queries[0].Result
	if len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("pinned job saw %d tuples, want %d (pre-ingest)", len(got.Tuples), len(want.Tuples))
	}
	for _, tp := range got.Tuples {
		for _, v := range tp.Values {
			if v == "Cafe Ladro" {
				t.Fatal("pinned job saw the post-submit document")
			}
		}
	}
}

// TestAutoCompaction: crossing MaxDeltaDocs kicks a background fold; the
// delta drains without an explicit compact call.
func TestAutoCompaction(t *testing.T) {
	svc := NewService(Config{MaxConcurrent: 2, CacheSize: -1, MaxDeltaDocs: 2})
	RegisterDemoCorpora(svc.Registry(), 1)
	texts := []string{
		"Cafe Ladro opened a new roastery downtown.",
		"Cafe Allegro brews a dark roast.",
		"Cafe Presse serves espresso at dawn.",
	}
	for i, txt := range texts {
		if _, _, _, err := svc.Ingest("demo-cafes", "", txt); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		info, err := svc.Registry().Info("demo-cafes")
		if err != nil {
			t.Fatal(err)
		}
		if info.Compactions >= 1 && info.DeltaDocs < 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto-compaction never ran: %+v", info)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// All three documents visible regardless of where compaction landed.
	resp, err := svc.Query(context.Background(), QueryRequest{Corpus: "demo-cafes", Query: DemoQueries["demo-cafes"], NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Cafe Ladro", "Cafe Allegro", "Cafe Presse"} {
		if !hasValue(resp.Tuples, name) {
			t.Fatalf("missing %s after auto-compaction: %+v", name, resp.Tuples)
		}
	}
}

// TestIngestDeleteErrors: service-level error mapping.
func TestIngestDeleteErrors(t *testing.T) {
	svc := NewService(Config{MaxConcurrent: 2})
	RegisterDemoCorpora(svc.Registry(), 1)
	if _, _, _, err := svc.Ingest("nope", "", "Hello."); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown corpus: %v", err)
	}
	if _, _, _, err := svc.Ingest("demo-cafes", "", "   \n\t "); !errors.Is(err, koko.ErrEmptyDocument) {
		t.Fatalf("unparseable doc: %v", err)
	}
	if _, err := svc.DeleteCorpus("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown delete: %v", err)
	}
	if _, _, err := svc.Compact("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown compact: %v", err)
	}
	// Deleting drops cache entries for the corpus.
	ctx := context.Background()
	if _, err := svc.Query(ctx, QueryRequest{Corpus: "demo-cafes", Query: DemoQueries["demo-cafes"]}); err != nil {
		t.Fatal(err)
	}
	if svc.Metrics().CacheEntries == 0 {
		t.Fatal("expected a cache entry")
	}
	if _, err := svc.DeleteCorpus("demo-cafes"); err != nil {
		t.Fatal(err)
	}
	if n := svc.Metrics().CacheEntries; n != 0 {
		t.Fatalf("cache still holds %d entries after delete", n)
	}
}

func mustUnmarshal(t *testing.T, b []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("unmarshal %s: %v", strings.TrimSpace(string(b)), err)
	}
}
