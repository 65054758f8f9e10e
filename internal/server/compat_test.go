package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/server/jobs"
	"repro/koko"
	"repro/koko/remote"
)

// Old clients keep working: request bodies that still carry the retired
// "workers" and "plan" fields are accepted, answered with the same tuples
// as the same request without them, and share its cache entry.

// legacyFields are the retired request fields an older client may still
// send.
var legacyFields = map[string]any{"workers": 8, "plan": "off"}

// withLegacy returns body as a JSON object with legacyFields added.
func withLegacy(t *testing.T, body any) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(mustMarshal(t, body), &m); err != nil {
		t.Fatal(err)
	}
	for k, v := range legacyFields {
		m[k] = v
	}
	return m
}

// TestLegacyQueryFieldsIgnored: /v1/query buffered and streamed, and
// /v1/jobs, accept bodies with the retired fields and answer byte-identical
// tuples; the second query of each pair is a cache hit, so the fields do
// not split the cache. Jobs bypass the result cache, so only their tuples
// are compared.
func TestLegacyQueryFieldsIgnored(t *testing.T) {
	svc := NewService(Config{CacheSize: 32})
	RegisterDemoCorpora(svc.Registry(), 3)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	const corpus = "demo-cafes"
	query := DemoQueries[corpus]

	// Buffered: the current body first, the legacy body must hit its entry.
	req := QueryRequest{Corpus: corpus, Query: query}
	var buffered [2]queryJSON // current, legacy
	for i, body := range []any{req, withLegacy(t, req)} {
		resp, raw := postJSON(t, ts, "/v1/query", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("buffered request %d: status %d: %s", i, resp.StatusCode, raw)
		}
		if err := json.Unmarshal(raw, &buffered[i]); err != nil {
			t.Fatal(err)
		}
	}
	if len(buffered[0].Tuples) == 0 {
		t.Fatal("buffered query returned no tuples; the comparison is vacuous")
	}
	if !buffered[1].Cached {
		t.Error("legacy buffered request missed the current request's cache entry")
	}
	want := mustMarshal(t, buffered[0].Tuples)
	if got := mustMarshal(t, buffered[1].Tuples); !bytes.Equal(got, want) {
		t.Fatalf("legacy buffered tuples differ:\n got %s\nwant %s", got, want)
	}

	// Streamed, with explain so the pair gets its own entry: the legacy body
	// first, the current body must hit its entry.
	sreq := QueryRequest{Corpus: corpus, Query: query, Explain: true}
	var streamed [2][]byte
	for i, body := range []any{withLegacy(t, sreq), sreq} {
		resp, raw := postJSON(t, ts, "/v1/query?stream=1", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream request %d: status %d: %s", i, resp.StatusCode, raw)
		}
		tuples, _, done, errLine := readStream(t, raw)
		if errLine != "" || done == nil {
			t.Fatalf("stream request %d: error %q, done %+v", i, errLine, done)
		}
		if done.Cached != (i == 1) {
			t.Errorf("stream request %d: cached = %t, want %t", i, done.Cached, i == 1)
		}
		streamed[i] = mustMarshal(t, tuples)
	}
	if !bytes.Equal(streamed[0], streamed[1]) {
		t.Fatalf("legacy streamed tuples differ:\n got %s\nwant %s", streamed[0], streamed[1])
	}

	// Jobs.
	spec := jobs.Spec{Corpus: corpus, Queries: []string{query}}
	var jobTuples [2][]byte
	for i, body := range []any{spec, withLegacy(t, spec)} {
		resp, raw := postJSON(t, ts, "/v1/jobs", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d: submit status %d: %s", i, resp.StatusCode, raw)
		}
		var st jobs.Status
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		waitJobState(t, ts, st.ID, jobs.StateDone)
		var jr jobResultsJSON
		if resp := getJSON(t, ts, "/v1/jobs/"+st.ID+"/results", &jr); resp.StatusCode != http.StatusOK {
			t.Fatalf("job %d: results status %d", i, resp.StatusCode)
		}
		if len(jr.Queries) != 1 {
			t.Fatalf("job %d: %d query results, want 1", i, len(jr.Queries))
		}
		jobTuples[i] = mustMarshal(t, jr.Queries[0].Tuples)
	}
	if !bytes.Equal(jobTuples[1], jobTuples[0]) || !bytes.Equal(jobTuples[0], want) {
		t.Fatalf("job tuples differ:\nlegacy %s\ncurrent %s\nbuffered %s", jobTuples[1], jobTuples[0], want)
	}
}

// TestLegacyShardEvalFieldsIgnored: a shard-eval request from an older
// coordinator, still carrying "plan":"off" and "workers":4, is accepted and
// streams the same chunk lines as the current request.
func TestLegacyShardEvalFieldsIgnored(t *testing.T) {
	names, texts := shardTestTexts(8)
	_, w := startWorker(t, "c", koko.NewCorpus(names, texts), 3)
	req := remote.ShardEvalRequest{Corpus: "c", Shard: 1, Query: cafeQuery, Explain: true}
	old := withLegacy(t, req)
	old["workers"] = 4
	// The tuple lines must match byte for byte; the done line carries
	// timings, so only its checksummed counters are compared.
	var lines [2][]byte
	var dones [2]*remote.ChunkDone
	for i, body := range []any{req, old} {
		resp, raw := postJSON(t, w, remote.EvalPath, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shard-eval %d: status %d: %s", i, resp.StatusCode, raw)
		}
		var tuples []koko.Tuple
		if tuples, dones[i] = readChunks(t, raw); len(tuples) == 0 {
			t.Fatal("shard-eval streamed no tuples; the comparison is vacuous")
		}
		lines[i] = raw[:bytes.LastIndexByte(raw[:len(raw)-1], '\n')+1]
	}
	if !bytes.Equal(lines[1], lines[0]) {
		t.Fatalf("legacy shard-eval chunk lines differ:\n got %s\nwant %s", lines[1], lines[0])
	}
	if dones[1].Tuples != dones[0].Tuples || dones[1].Checksum != dones[0].Checksum {
		t.Fatalf("legacy done line %+v, want %+v", dones[1], dones[0])
	}
}
