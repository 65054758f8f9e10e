package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server/jobs"
	"repro/koko"
)

// The acceptance differential: for each demo corpus, the concatenated
// streamed NDJSON tuples and a completed job's fetched results must be
// byte-identical to the buffered POST /v1/query response, at K ∈ {1, 3}
// shards — plus the HTTP error paths and goroutine-hygiene checks around
// the async surface.

// readStream decodes an NDJSON response body into its events.
func readStream(t *testing.T, body []byte) (tuples []TupleResult, shardEvents []ShardProgress, done *StreamSummary, errLine string) {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev StreamEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		switch {
		case ev.Tuple != nil:
			if done != nil {
				t.Fatalf("tuple after done line: %q", line)
			}
			tuples = append(tuples, *ev.Tuple)
		case ev.Shard != nil:
			shardEvents = append(shardEvents, *ev.Shard)
		case ev.Done != nil:
			done = ev.Done
		case ev.Error != "":
			errLine = ev.Error
		default:
			t.Fatalf("empty stream event: %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return tuples, shardEvents, done, errLine
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func waitJobState(t *testing.T, ts *httptest.Server, id string, want jobs.State) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st jobs.Status
		resp := getJSON(t, ts, "/v1/jobs/"+id, &st)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job get status %d", resp.StatusCode)
		}
		if st.State == want {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return jobs.Status{}
}

// TestStreamAndJobMatchBuffered is the differential acceptance test: demo
// corpora at K ∈ {1, 3}, streamed tuples and completed-job results
// byte-identical to the buffered response.
func TestStreamAndJobMatchBuffered(t *testing.T) {
	for _, k := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			svc := NewService(Config{CacheSize: -1}) // no cache: force the per-shard path
			RegisterDemoCorpora(svc.Registry(), k)
			ts := httptest.NewServer(svc.Handler())
			defer ts.Close()

			for corpus, query := range DemoQueries {
				// Buffered reference.
				resp, body := postJSON(t, ts, "/v1/query", QueryRequest{Corpus: corpus, Query: query, Explain: true})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s buffered status %d: %s", corpus, resp.StatusCode, body)
				}
				var buffered QueryResponse
				if err := json.Unmarshal(body, &buffered); err != nil {
					t.Fatal(err)
				}
				if len(buffered.Tuples) == 0 {
					t.Fatalf("%s: buffered query returned no tuples", corpus)
				}
				wantBytes := mustMarshal(t, buffered.Tuples)

				// Streamed NDJSON: same tuples, same encoding, same order.
				resp, body = postJSON(t, ts, "/v1/query?stream=1", QueryRequest{Corpus: corpus, Query: query, Explain: true})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s stream status %d: %s", corpus, resp.StatusCode, body)
				}
				if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
					t.Errorf("stream content-type = %q", ct)
				}
				tuples, shardEvents, done, errLine := readStream(t, body)
				if errLine != "" {
					t.Fatalf("%s stream error: %s", corpus, errLine)
				}
				if done == nil {
					t.Fatalf("%s stream missing done line", corpus)
				}
				if got := mustMarshal(t, tuples); !bytes.Equal(got, wantBytes) {
					t.Fatalf("%s k=%d: streamed tuples differ from buffered:\n got %s\nwant %s", corpus, k, got, wantBytes)
				}
				wantShards := svcShards(t, svc, corpus)
				if len(shardEvents) != wantShards {
					t.Fatalf("%s k=%d: %d shard events, want %d", corpus, k, len(shardEvents), wantShards)
				}
				if done.Tuples != len(tuples) || done.Candidates != buffered.Candidates || done.Matched != buffered.Matched {
					t.Fatalf("%s done summary %+v vs buffered %d/%d/%d",
						corpus, done, len(buffered.Tuples), buffered.Candidates, buffered.Matched)
				}

				// Async job: submit, run to completion, fetch results.
				resp, body = postJSON(t, ts, "/v1/jobs", jobs.Spec{Corpus: corpus, Queries: []string{query}, Explain: true})
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("%s job submit status %d: %s", corpus, resp.StatusCode, body)
				}
				var st jobs.Status
				if err := json.Unmarshal(body, &st); err != nil {
					t.Fatal(err)
				}
				final := waitJobState(t, ts, st.ID, jobs.StateDone)
				if final.ShardsDone != wantShards {
					t.Fatalf("%s job shards_done = %d, want %d", corpus, final.ShardsDone, wantShards)
				}
				var jr jobResultsResponse
				if resp := getJSON(t, ts, "/v1/jobs/"+st.ID+"/results", &jr); resp.StatusCode != http.StatusOK {
					t.Fatalf("job results status %d", resp.StatusCode)
				}
				if len(jr.Queries) != 1 || !jr.Queries[0].Complete {
					t.Fatalf("%s job results = %+v", corpus, jr.Queries)
				}
				if got := mustMarshal(t, jr.Queries[0].Tuples); !bytes.Equal(got, wantBytes) {
					t.Fatalf("%s k=%d: job tuples differ from buffered:\n got %s\nwant %s", corpus, k, got, wantBytes)
				}
				if jr.Queries[0].Candidates != buffered.Candidates || jr.Queries[0].Matched != buffered.Matched {
					t.Fatalf("%s job counts %d/%d vs buffered %d/%d", corpus,
						jr.Queries[0].Candidates, jr.Queries[0].Matched, buffered.Candidates, buffered.Matched)
				}
			}
		})
	}
}

// svcShards resolves how many shards actually serve a corpus (a 1-doc
// corpus asked for 3 shards comes up with 1 shard per doc).
func svcShards(t *testing.T, svc *Service, corpus string) int {
	t.Helper()
	info, err := svc.Registry().Info(corpus)
	if err != nil {
		t.Fatal(err)
	}
	return info.Shards
}

// TestStreamCacheInterplay: a streamed miss populates the cache; the
// follow-up buffered and streamed requests hit it and still return the
// identical tuples.
func TestStreamCacheInterplay(t *testing.T) {
	svc := NewService(Config{CacheSize: 32})
	RegisterDemoCorpora(svc.Registry(), 3)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	q := DemoQueries["demo-cafes"]
	_, body := postJSON(t, ts, "/v1/query?stream=1", QueryRequest{Corpus: "demo-cafes", Query: q})
	tuples, _, done, _ := readStream(t, body)
	if done == nil || done.Cached {
		t.Fatalf("first stream: done=%+v", done)
	}
	var buffered QueryResponse
	_, body = postJSON(t, ts, "/v1/query", QueryRequest{Corpus: "demo-cafes", Query: q})
	if err := json.Unmarshal(body, &buffered); err != nil {
		t.Fatal(err)
	}
	if !buffered.Cached {
		t.Error("buffered follow-up missed the cache populated by the stream")
	}
	if !bytes.Equal(mustMarshal(t, buffered.Tuples), mustMarshal(t, tuples)) {
		t.Fatal("cached buffered tuples differ from streamed")
	}
	_, body = postJSON(t, ts, "/v1/query?stream=1", QueryRequest{Corpus: "demo-cafes", Query: q})
	tuples2, shardEvents, done2, _ := readStream(t, body)
	if done2 == nil || !done2.Cached {
		t.Fatalf("second stream not served from cache: %+v", done2)
	}
	if len(shardEvents) != 0 {
		t.Errorf("cache-hit stream emitted %d shard events, want 0", len(shardEvents))
	}
	if !bytes.Equal(mustMarshal(t, tuples2), mustMarshal(t, tuples)) {
		t.Fatal("cache-hit stream tuples differ")
	}
}

// TestJobHTTPErrorPaths: malformed bodies, unknown ids, over-limit
// submits, and cancelled-job results over real HTTP.
func TestJobHTTPErrorPaths(t *testing.T) {
	svc := NewService(Config{CacheSize: -1})
	RegisterDemoCorpora(svc.Registry(), 2)
	gate := newGatedQuerier(mustEngine(svc, "demo-cafes"))
	svc.Registry().Register("slow", gate)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	post := func(path, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
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

	// Malformed job bodies.
	for _, body := range []string{
		`{`,
		`{"queries": ["x"]}`,
		`{"corpus": "demo-cafes"}`,
		`{"corpus": "demo-cafes", "queries": ["extract from if"]}`,
	} {
		if resp, b := post("/v1/jobs", body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d (%s), want 400", body, resp.StatusCode, b)
		}
	}
	// Unknown corpus.
	if resp, _ := post("/v1/jobs", `{"corpus": "nope", "queries": ["`+cafeQuery2()+`"]}`); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown corpus submit status %d, want 404", resp.StatusCode)
	}
	// Unknown job ids on every job endpoint.
	if resp := getJSON(t, ts, "/v1/jobs/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job get status %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts, "/v1/jobs/nope/results", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job results status %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/nope", nil)
	if resp, err := ts.Client().Do(req); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job delete status %d", resp.StatusCode)
	}

	// Hold the default active-job limit (16) on the gated corpus, then
	// exceed it.
	const maxActive = 16
	spec := jobs.Spec{Corpus: "slow", Queries: []string{DemoQueries["demo-cafes"]}}
	var st jobs.Status
	for i := 0; i < maxActive; i++ {
		resp, body := postJSON(t, ts, "/v1/jobs", spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d status %d: %s", i, resp.StatusCode, body)
		}
		if i == 0 {
			if err := json.Unmarshal(body, &st); err != nil {
				t.Fatal(err)
			}
		}
	}
	resp, body := postJSON(t, ts, "/v1/jobs", spec)
	if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(string(body), "job_limit") {
		t.Errorf("over-limit submit status %d (%s), want 429 job_limit", resp.StatusCode, body)
	}

	// Cancel the in-flight job; results of a cancelled job stay fetchable
	// (200, state cancelled, incomplete prefix).
	<-gate.started
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	dresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var cancelled jobs.Status
	if err := json.NewDecoder(dresp.Body).Decode(&cancelled); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK || cancelled.State != jobs.StateCancelled {
		t.Fatalf("delete = %d %+v", dresp.StatusCode, cancelled)
	}
	waitJobState(t, ts, st.ID, jobs.StateCancelled)
	var jr jobResultsResponse
	if resp := getJSON(t, ts, "/v1/jobs/"+st.ID+"/results", &jr); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancelled job results status %d, want 200", resp.StatusCode)
	}
	if jr.State != jobs.StateCancelled || jr.Queries[0].Complete {
		t.Fatalf("cancelled job results = %+v", jr)
	}
	close(gate.release)

	// Streaming a malformed query fails with a proper status (nothing was
	// written yet), and jobs listing works.
	if resp, _ := postJSON(t, ts, "/v1/query?stream=1", QueryRequest{Corpus: "demo-cafes", Query: "extract from if"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("stream bad query status %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts, "/v1/query?stream=1", QueryRequest{Corpus: "nope", Query: DemoQueries["demo-cafes"]}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("stream unknown corpus status %d, want 404", resp.StatusCode)
	}
	var listing struct {
		Jobs []jobs.Status `json:"jobs"`
	}
	getJSON(t, ts, "/v1/jobs", &listing)
	if len(listing.Jobs) != maxActive {
		t.Errorf("jobs listing has %d jobs, want the %d submitted", len(listing.Jobs), maxActive)
	}
}

func cafeQuery2() string {
	return `extract x:Entity from \"blogs\" if () satisfying x (str(x) contains \"Cafe\" {1.0}) with threshold 0.5`
}

func mustEngine(svc *Service, name string) koko.Querier {
	eng, _, err := svc.Registry().Engine(name)
	if err != nil {
		panic(err)
	}
	return eng
}

// gatedQuerier blocks StreamShard (the job executor's per-shard evaluation
// call) until released — the HTTP-level instrument for cancellation tests
// (same idea as the jobs package's internal one).
type gatedQuerier struct {
	koko.Querier
	started chan struct{}
	release chan struct{}
	once    atomic.Bool
}

func newGatedQuerier(q koko.Querier) *gatedQuerier {
	return &gatedQuerier{Querier: q, started: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedQuerier) StreamShard(ctx context.Context, shard int, p *koko.ParsedQuery, qo *koko.QueryOptions, emit func([]koko.Tuple) error) (*koko.Result, error) {
	if g.once.CompareAndSwap(false, true) {
		close(g.started)
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-g.release:
	}
	return g.Querier.StreamShard(ctx, shard, p, qo, emit)
}

// stallQuerier streams a complete first shard, then stalls every later
// shard until the request context dies — the instrument for the
// client-disconnect test. The override sits on StreamShard because that is
// the per-shard call the registry's mutable wrapper fans out to. stalled
// closes once a later shard is parked, so the test disconnects only while
// an evaluation is in flight (a shard the fan-out has not yet started when
// the cancel lands is skipped, never entering StreamShard at all).
type stallQuerier struct {
	koko.Querier
	stalled   chan struct{}
	cancelled chan struct{}
}

func (s *stallQuerier) StreamShard(ctx context.Context, shard int, p *koko.ParsedQuery, qo *koko.QueryOptions, emit func([]koko.Tuple) error) (*koko.Result, error) {
	if shard == 0 {
		return s.Querier.StreamShard(ctx, 0, p, qo, emit)
	}
	close(s.stalled)
	<-ctx.Done()
	close(s.cancelled)
	return nil, ctx.Err()
}

// TestStreamClientDisconnect: a client dropping mid-stream cancels the
// shard fan-out and releases the worker slot — the server must not leak
// the evaluation goroutines.
func TestStreamClientDisconnect(t *testing.T) {
	svc := NewService(Config{CacheSize: -1, MaxConcurrent: 1})
	RegisterDemoCorpora(svc.Registry(), 2)
	stall := &stallQuerier{Querier: mustEngine(svc, "demo-cafes"), stalled: make(chan struct{}), cancelled: make(chan struct{})}
	svc.Registry().Register("stall", stall)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	b, _ := json.Marshal(QueryRequest{Corpus: "stall", Query: DemoQueries["demo-cafes"]})
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/query?stream=1", bytes.NewReader(b))
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read the first flushed shard, then walk away while shard 1 is stalled.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("reading first stream line: %v", err)
	}
	select {
	case <-stall.stalled:
	case <-time.After(15 * time.Second):
		t.Fatal("shard 1 never started evaluating")
	}
	cancel()
	resp.Body.Close()

	select {
	case <-stall.cancelled:
	case <-time.After(15 * time.Second):
		t.Fatal("server never cancelled the shard evaluation after client disconnect")
	}
	// The worker slot must come back: the next (buffered) query on the
	// 1-slot pool succeeds promptly.
	deadline := time.Now().Add(15 * time.Second)
	for {
		r, err := svc.Query(context.Background(), QueryRequest{Corpus: "demo-cafes", Query: DemoQueries["demo-cafes"]})
		if err == nil && len(r.Tuples) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool slot never released after disconnect (err=%v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := svc.Metrics().InFlight; got != 0 {
		t.Errorf("in_flight = %d after disconnect drain, want 0", got)
	}
}

// TestQueryDuringReload: queries served concurrently with hot reloads never
// fail — each request resolves one consistent generation.
func TestQueryDuringReload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.koko")
	names := []string{"a.txt", "b.txt", "c.txt", "d.txt"}
	texts := []string{
		"Cafe Vita serves smooth espresso daily.",
		"Cafe Juanita hired a champion barista.",
		"Cafe Umbria opened a second location.",
		"Cafe Ladro roasts beans nightly.",
	}
	if err := koko.NewEngine(koko.NewCorpus(names, texts), nil).Save(path); err != nil {
		t.Fatal(err)
	}
	svc := NewService(Config{CacheSize: 8, Shards: 2})
	if err := svc.Registry().LoadFile("c", path); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	reloadErrs := make(chan error, 1)
	go func() {
		defer close(reloadErrs)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := svc.Reload("c"); err != nil {
				reloadErrs <- err
				return
			}
		}
	}()

	q := DemoQueries["demo-cafes"]
	for i := 0; i < 25; i++ {
		resp, body := postJSON(t, ts, "/v1/query", QueryRequest{Corpus: "c", Query: q, NoCache: i%2 == 0})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d during reload: status %d: %s", i, resp.StatusCode, body)
		}
		var qr QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		if len(qr.Tuples) != 4 {
			t.Fatalf("query %d during reload: %d tuples, want 4", i, len(qr.Tuples))
		}
	}
	close(stop)
	if err, ok := <-reloadErrs; ok && err != nil {
		t.Fatalf("reload failed: %v", err)
	}
}

// TestJobsMetricsSnapshot: /v1/metrics carries the jobs-by-state view and
// stream counters.
func TestJobsMetricsSnapshot(t *testing.T) {
	svc := NewService(Config{CacheSize: -1})
	RegisterDemoCorpora(svc.Registry(), 2)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts, "/v1/jobs", jobs.Spec{Corpus: "demo-cafes", Queries: []string{DemoQueries["demo-cafes"]}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var st jobs.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	waitJobState(t, ts, st.ID, jobs.StateDone)
	_, body = postJSON(t, ts, "/v1/query?stream=1", QueryRequest{Corpus: "demo-cafes", Query: DemoQueries["demo-cafes"]})
	if _, _, done, _ := readStream(t, body); done == nil {
		t.Fatal("stream incomplete")
	}

	var m MetricsSnapshot
	getJSON(t, ts, "/v1/metrics", &m)
	if m.Jobs.Submitted != 1 || m.Jobs.Done != 1 || m.Jobs.Retained != 1 {
		t.Errorf("jobs metrics = %+v", m.Jobs)
	}
	if m.StreamsTotal != 1 {
		t.Errorf("streams_total = %d, want 1", m.StreamsTotal)
	}
}
