package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/koko"
	"repro/koko/remote"
)

// Distributed-execution tests: a coordinator Service connected to worker
// Services over real HTTP must answer byte-identically to a single-node
// Service over the same corpus — including after a worker is killed
// mid-suite — and the worker endpoint, degradation, and metrics surfaces
// must behave as documented.

// distCase mirrors the koko package's differential generators.
// wireEscapes marks a case whose output values must include at least one
// that JSON has to escape, so escaped strings are known to cross the wire.
type distCase struct {
	name        string
	corpus      func() *koko.Corpus
	queries     []string
	wireEscapes bool
}

func distCases() []distCase {
	return []distCase{
		{
			name:   "cafes",
			corpus: func() *koko.Corpus { return koko.WrapCorpus(corpus.GenCafes(corpus.BaristaMagConfig(11)).Corpus) },
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
			name: "tweets",
			corpus: func() *koko.Corpus {
				return koko.WrapCorpus(corpus.GenWNUT(corpus.WNUTConfig{Tweets: 150, Seed: 7}).Corpus)
			},
			queries: []string{
				`extract x:Entity from "tweets" if ()
				 satisfying x
				 (x "vs" {0.9}) or ("vs" x {0.9}) or ("go" x {0.9})
				 with threshold 0.5`,
			},
		},
		{
			name:   "happydb",
			corpus: func() *koko.Corpus { return koko.WrapCorpus(corpus.GenHappyDB(300, 3)) },
			queries: []string{
				`extract e:Entity, d:Str from "moments" if
				 (/ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) } (b) in (e))`,
				`extract o:Str from "moments" if (
				 /ROOT:{ v = //verb, b = v/dobj, o = (b.subtree) })
				 satisfying o ("ate" o {0.7}) or (o near "delicious" {1}) with threshold 0.2`,
			},
		},
		{
			// Documents with a quote, a backslash, a tab, a control byte,
			// non-ASCII letters, U+2028 and an invalid UTF-8 byte. The tab
			// and U+2028 are whitespace to the tokenizer and the invalid byte
			// becomes U+FFFD; the rest reach the values verbatim.
			name: "wire-hostile",
			corpus: func() *koko.Corpus {
				return koko.NewCorpus([]string{"a", "b", "c", "d", "e", "f"}, []string{
					"Ann ate the \"Vita\" cake with a \\ sauce and crème brûlée at 日本 Cafe.",
					"Bob ate a\tburnt \u2028 waffle near Cafe \xff Ladro with \x01 syrup.",
					"Cy ate \"toast\" slowly at the \\ bar.",
					"Dee ate warm bread in Zürich and 東京 today.",
					"Eve ate the \"best\" cake in town.",
					"Fay ate plain rice.",
				})
			},
			queries: []string{
				`extract o:Str from "d" if (/ROOT:{ v = //verb, o = (v.subtree) })`,
				`extract o:Str from "d" if (/ROOT:{ v = //verb, o = (v.subtree) })
				 satisfying o ("ate" o {0.7}) or (o near "cake" {1}) with threshold 0.2`,
			},
			wireEscapes: true,
		},
	}
}

// startWorker serves corpus name (sharded) over real HTTP as a worker node.
func startWorker(t *testing.T, name string, c *koko.Corpus, shards int) (*Service, *httptest.Server) {
	t.Helper()
	svc := NewService(Config{MaxConcurrent: 8})
	if err := svc.Registry().Register(name, koko.NewShardedEngine(c, shards, nil)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

// fastRemote is RemoteConfig with two replicas per shard and hedging off
// for determinism.
func fastRemote(workers ...string) RemoteConfig {
	return RemoteConfig{Workers: workers, Replicas: 2, HedgeAfter: -1}
}

// queryReply is a decoded /v1/query response plus the raw bytes of its
// "tuples" array.
type queryReply struct {
	QueryResponse
	rawTuples json.RawMessage
}

// httpQuery runs one buffered query over HTTP and fails on non-200.
func httpQuery(t *testing.T, ts *httptest.Server, req QueryRequest) queryReply {
	t.Helper()
	resp, body := postJSON(t, ts, "/v1/query", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}
	var out queryReply
	if err := json.Unmarshal(body, &out.QueryResponse); err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Tuples json.RawMessage `json:"tuples"`
	}
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	out.rawTuples = raw.Tuples
	return out
}

// sameResponses compares the decoded responses and then the raw bytes of
// their "tuples" arrays: a distributed answer is byte-identical, not just
// equal once decoded.
func sameResponses(t *testing.T, label string, want, got queryReply) {
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
	if !bytes.Equal(want.rawTuples, got.rawTuples) {
		t.Fatalf("%s: tuples decode equal but their bytes differ:\n got %s\nwant %s", label, got.rawTuples, want.rawTuples)
	}
}

// needsEscape reports whether JSON must escape some byte of s.
func needsEscape(s string) bool {
	return strings.ContainsAny(s, "\"\\\u2028\u2029") || strings.ContainsFunc(s, func(r rune) bool { return r < 0x20 })
}

// TestDistributedDifferential: coordinator over two replicated workers,
// byte-identical to single-node for every generator and query — before a
// worker kill and after it (retries route around the corpse).
func TestDistributedDifferential(t *testing.T) {
	for _, tc := range distCases() {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.corpus()

			// Single-node reference service over the unpartitioned corpus.
			ref := NewService(Config{MaxConcurrent: 8})
			if err := ref.Registry().Register("c", koko.NewEngine(c, nil)); err != nil {
				t.Fatal(err)
			}
			refTS := httptest.NewServer(ref.Handler())
			defer refTS.Close()

			_, w1 := startWorker(t, "c", c, 3)
			w2svc, w2 := startWorker(t, "c", c, 3)

			coord := NewService(Config{MaxConcurrent: 8})
			names, err := coord.ConnectWorkers(context.Background(), fastRemote(w1.URL, w2.URL))
			if err != nil {
				t.Fatalf("connect workers: %v", err)
			}
			if len(names) != 1 || names[0] != "c" {
				t.Fatalf("discovered corpora = %v, want [c]", names)
			}
			coordTS := httptest.NewServer(coord.Handler())
			defer coordTS.Close()

			refTuples, escaped := 0, 0
			for _, q := range tc.queries {
				for _, explain := range []bool{false, true} {
					req := QueryRequest{Corpus: "c", Query: q, Explain: explain, NoCache: true}
					want := httpQuery(t, refTS, req)
					got := httpQuery(t, coordTS, req)
					sameResponses(t, tc.name+"/both-alive", want, got)
					refTuples += len(want.Tuples)
					for _, tu := range got.Tuples {
						if slices.ContainsFunc(tu.Values, needsEscape) {
							escaped++
						}
					}
				}
			}
			if refTuples == 0 {
				t.Fatal("workload produces no tuples; differential is vacuous")
			}
			if tc.wireEscapes && escaped == 0 {
				t.Fatal("no value that JSON escapes crossed the wire; the hostile case is vacuous")
			}

			// Kill worker 1. Every shard keeps a replica on worker 2, so the
			// coordinator must still answer byte-identically via retries.
			w1.Close()
			for _, q := range tc.queries {
				req := QueryRequest{Corpus: "c", Query: q, NoCache: true}
				want := httpQuery(t, refTS, req)
				got := httpQuery(t, coordTS, req)
				sameResponses(t, tc.name+"/after-kill", want, got)
			}

			m := coord.Metrics()
			if m.RemoteAttempts == 0 {
				t.Error("remote_attempts stayed 0 on a coordinator")
			}
			if m.RemoteRetries == 0 {
				t.Error("remote_retries stayed 0 despite a killed worker")
			}
			if w2svc.Metrics().ShardEvalsServed == 0 {
				t.Error("surviving worker served no shard evals")
			}
		})
	}
}

// TestShardEvalEndpoint drives the worker endpoint directly: status codes
// for unknown corpus, bad shard, bad query, and a moved generation; a valid
// call returns a checksummed partial at the serving generation.
func TestShardEvalEndpoint(t *testing.T) {
	c := koko.WrapCorpus(corpus.GenCafes(corpus.BaristaMagConfig(11)).Corpus)
	svc, ts := startWorker(t, "c", c, 3)

	post := func(req remote.ShardEvalRequest) (*http.Response, []byte) {
		t.Helper()
		resp, body := postJSON(t, ts, remote.EvalPath, req)
		return resp, body
	}
	goodQuery := `extract x:Entity from "blogs" if () satisfying x (str(x) contains "Cafe" {1.0}) with threshold 0.5`

	if resp, body := post(remote.ShardEvalRequest{Corpus: "nope", Shard: 0, Query: goodQuery}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown corpus status = %d (%s), want 404", resp.StatusCode, body)
	}
	if resp, body := post(remote.ShardEvalRequest{Corpus: "c", Shard: 9, Query: goodQuery}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad shard status = %d (%s), want 400", resp.StatusCode, body)
	}
	if resp, body := post(remote.ShardEvalRequest{Corpus: "c", Shard: 0, Query: "not a query"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad query status = %d (%s), want 400", resp.StatusCode, body)
	}
	if resp, body := post(remote.ShardEvalRequest{Corpus: "c", Shard: 0, Query: goodQuery, Generation: 99}); resp.StatusCode != http.StatusConflict {
		t.Errorf("moved generation status = %d (%s), want 409", resp.StatusCode, body)
	}

	resp, body := post(remote.ShardEvalRequest{Corpus: "c", Shard: 1, Query: goodQuery, Generation: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid shard-eval status = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q, want application/x-ndjson", ct)
	}
	tuples, done := readChunks(t, body)
	if len(tuples) == 0 {
		t.Fatal("valid shard-eval streamed no tuples; the endpoint check is vacuous")
	}
	if done.Generation != 1 {
		t.Errorf("done generation = %d, want 1", done.Generation)
	}
	if done.Summary == nil {
		t.Fatal("nil summary in the done line")
	}
	if svc.Metrics().ShardEvalsServed != 1 {
		t.Errorf("shard_evals_served = %d, want 1", svc.Metrics().ShardEvalsServed)
	}
}

// TestShardEvalWireBytes: for the happydb and cafes queries, explain on and
// off, every shard's tuple lines from the worker are byte-identical to what
// json.Encoder (SetEscapeHTML(false)) writes for the same shard evaluated
// locally, batch by batch. The frame codec changed how the bytes are made,
// not what they are, so nodes on either side of it interoperate.
func TestShardEvalWireBytes(t *testing.T) {
	const shards = 3
	for _, tc := range distCases() {
		if tc.name != "happydb" && tc.name != "cafes" {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			c := tc.corpus()
			local := koko.NewShardedEngine(c, shards, nil)
			_, w := startWorker(t, "c", c, shards)
			lines := 0
			for qi, q := range tc.queries {
				p, err := koko.ParseQuery(q)
				if err != nil {
					t.Fatal(err)
				}
				for _, explain := range []bool{false, true} {
					for shard := 0; shard < shards; shard++ {
						resp, body := postJSON(t, w, remote.EvalPath, remote.ShardEvalRequest{
							Corpus: "c", Shard: shard, Query: p.Canonical(), Explain: explain,
						})
						if resp.StatusCode != http.StatusOK {
							t.Fatalf("shard-eval status %d: %s", resp.StatusCode, body)
						}
						var want bytes.Buffer
						enc := json.NewEncoder(&want)
						enc.SetEscapeHTML(false)
						if _, err := local.StreamShard(context.Background(), shard, p, &koko.QueryOptions{Explain: explain}, func(ts []koko.Tuple) error {
							lines++
							return enc.Encode(remote.ChunkLine{Tuples: ts, Checksum: remote.TuplesChecksum(ts)})
						}); err != nil {
							t.Fatal(err)
						}
						// Everything before the done line is tuple batches.
						doneAt := bytes.LastIndexByte(body[:len(body)-1], '\n') + 1
						if !bytes.HasPrefix(body[doneAt:], []byte(`{"done":`)) {
							t.Fatalf("query %d shard %d: the body does not end with a done line: %q", qi, shard, body[doneAt:])
						}
						if got := body[:doneAt]; !bytes.Equal(got, want.Bytes()) {
							t.Fatalf("query %d explain=%v shard %d: tuple lines differ from encoding/json's:\n got %s\nwant %s",
								qi, explain, shard, got, want.Bytes())
						}
					}
				}
			}
			if lines == 0 {
				t.Fatal("no tuple batch crossed the wire; the comparison is vacuous")
			}
		})
	}
}

// readChunks decodes a shard-eval NDJSON body: every line before the last
// must be a tuple batch whose stamped checksum matches its payload, and the
// last a done line whose tuple count and counters checksum match the
// stream. Returns the concatenated tuples and the done line.
func readChunks(t *testing.T, body []byte) ([]koko.Tuple, *remote.ChunkDone) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	var tuples []koko.Tuple
	for {
		var line remote.ChunkLine
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("stream ended without a done line after %d tuples: %v", len(tuples), err)
		}
		switch {
		case line.Error != "":
			t.Fatalf("worker error line: %s", line.Error)
		case line.Done != nil:
			d := line.Done
			if d.Tuples != len(tuples) {
				t.Fatalf("done line claims %d tuples, stream carried %d", d.Tuples, len(tuples))
			}
			var cand, matched int
			if d.Summary != nil {
				cand, matched = d.Summary.Candidates, d.Summary.Matched
			}
			if got := remote.CountersChecksum(cand, matched, d.Tuples); got != d.Checksum {
				t.Fatalf("done checksum %x does not match its counters %x", d.Checksum, got)
			}
			if dec.More() {
				t.Fatal("lines after the done line")
			}
			return tuples, d
		default:
			if len(line.Tuples) == 0 {
				t.Fatal("empty batch line")
			}
			if got := remote.TuplesChecksum(line.Tuples); got != line.Checksum {
				t.Fatalf("batch checksum %x does not match its payload %x", line.Checksum, got)
			}
			tuples = append(tuples, line.Tuples...)
		}
	}
}

// TestShardEvalSkipResumesSuffix: the worker half of retry-resume. A
// request with Skip=n streams exactly the suffix of the Skip=0 stream after
// its first n tuples — with valid per-batch checksums and done.tuples =
// total-n — including skips that end inside or on a batch boundary.
func TestShardEvalSkipResumesSuffix(t *testing.T) {
	c := koko.WrapCorpus(corpus.GenCafes(corpus.BaristaMagConfig(11)).Corpus)
	_, ts := startWorker(t, "c", c, 1)
	q := `extract x:Entity from "blogs" if () satisfying x (str(x) contains "Cafe" {1.0}) with threshold 0.5`
	eval := func(skip int) ([]koko.Tuple, *remote.ChunkDone) {
		t.Helper()
		resp, body := postJSON(t, ts, remote.EvalPath, remote.ShardEvalRequest{Corpus: "c", Query: q, Skip: skip})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("skip=%d: status %d: %s", skip, resp.StatusCode, body)
		}
		return readChunks(t, body)
	}
	all, full := eval(0)
	total := len(all)
	if total <= 2*16 {
		t.Fatalf("shard streams %d tuples; need several batches for the skip cases", total)
	}
	for _, n := range []int{1, 15, 16, 17, total / 2, total - 1, total} {
		got, done := eval(n)
		if done.Tuples != total-n {
			t.Errorf("skip=%d: done.tuples = %d, want %d", n, done.Tuples, total-n)
		}
		if want := all[n:]; len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("skip=%d: streamed %d tuples that are not the suffix all[%d:] (%d tuples)", n, len(got), n, total-n)
		}
		if done.Summary.Candidates != full.Summary.Candidates || done.Summary.Matched != full.Summary.Matched {
			t.Errorf("skip=%d: counters %d/%d differ from the unskipped %d/%d", n,
				done.Summary.Candidates, done.Summary.Matched, full.Summary.Candidates, full.Summary.Matched)
		}
	}
}

// TestPartialOKDegradedHTTP: with replicas=1 and a worker killed, plain
// queries fail 502 with a shard-unavailable error while ?partial=ok returns
// 200 with the surviving shards, the degraded marker, and the failed shard
// list — and degraded responses never enter the result cache.
func TestPartialOKDegradedHTTP(t *testing.T) {
	c := koko.WrapCorpus(corpus.GenCafes(corpus.BaristaMagConfig(11)).Corpus)
	_, w1 := startWorker(t, "c", c, 3)
	_, w2 := startWorker(t, "c", c, 3)

	coord := NewService(Config{MaxConcurrent: 8})
	rc := fastRemote(w1.URL, w2.URL)
	rc.Replicas = 1 // each shard lives on exactly one worker: no failover
	if _, err := coord.ConnectWorkers(context.Background(), rc); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	q := `extract x:Entity from "blogs" if () satisfying x (str(x) contains "Cafe" {1.0}) with threshold 0.5`
	full := httpQuery(t, ts, QueryRequest{Corpus: "c", Query: q, NoCache: true})
	if full.Degraded || len(full.FailedShards) != 0 {
		t.Fatalf("healthy query reported degraded: %+v", full)
	}

	w2.Close()
	resp, body := postJSON(t, ts, "/v1/query", QueryRequest{Corpus: "c", Query: q, NoCache: true})
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("strict query with a dead shard: status %d (%s), want 502", resp.StatusCode, body)
	}

	resp, body = postJSON(t, ts, "/v1/query?partial=ok", QueryRequest{Corpus: "c", Query: q})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial=ok status %d: %s", resp.StatusCode, body)
	}
	var deg QueryResponse
	if err := json.Unmarshal(body, &deg); err != nil {
		t.Fatal(err)
	}
	if !deg.Degraded || len(deg.FailedShards) == 0 {
		t.Fatalf("partial=ok response not marked degraded: %+v", deg)
	}
	if len(deg.Tuples) == 0 || len(deg.Tuples) >= len(full.Tuples) {
		t.Fatalf("degraded tuples = %d, want non-empty strict subset of %d", len(deg.Tuples), len(full.Tuples))
	}
	for _, tu := range deg.Tuples {
		found := false
		for _, ft := range full.Tuples {
			if reflect.DeepEqual(tu, ft) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("degraded tuple %+v absent from the full result (attribution shifted?)", tu)
		}
	}

	// Degraded results are never cached: a repeat must re-evaluate.
	resp, body = postJSON(t, ts, "/v1/query?partial=ok", QueryRequest{Corpus: "c", Query: q})
	var again QueryResponse
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if again.Cached {
		t.Fatal("degraded result was served from the cache")
	}
	if m := coord.Metrics(); m.DegradedQueries < 2 {
		t.Errorf("degraded_queries = %d, want >= 2", m.DegradedQueries)
	}

	// The metrics JSON must expose every distributed counter by name.
	var raw map[string]any
	getJSON(t, ts, "/v1/metrics", &raw)
	for _, key := range []string{
		"remote_attempts", "remote_retries", "remote_hedges_fired", "remote_hedge_wins",
		"remote_corrupt_partials", "node_unhealthy", "breaker_open",
		"degraded_queries", "shard_evals_served",
	} {
		if _, ok := raw[key]; !ok {
			t.Errorf("/v1/metrics missing %q", key)
		}
	}
}

// TestStreamShardUnavailable: with every worker down, a streamed query
// classifies the failure exactly as a buffered one does — 502
// shard_unavailable, counted as a query error — because both modes run on
// one service path.
func TestStreamShardUnavailable(t *testing.T) {
	c := koko.WrapCorpus(corpus.GenCafes(corpus.BaristaMagConfig(11)).Corpus)
	_, w1 := startWorker(t, "c", c, 3)
	_, w2 := startWorker(t, "c", c, 3)
	coord := NewService(Config{MaxConcurrent: 8})
	if _, err := coord.ConnectWorkers(context.Background(), fastRemote(w1.URL, w2.URL)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()
	w1.Close()
	w2.Close()

	q := `extract x:Entity from "blogs" if () satisfying x (str(x) contains "Cafe" {1.0}) with threshold 0.5`
	for _, path := range []string{"/v1/query", "/v1/query?stream=1"} {
		resp, body := postJSON(t, ts, path, QueryRequest{Corpus: "c", Query: q, NoCache: true})
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("%s: undecodable error body %q: %v", path, body, err)
		}
		if resp.StatusCode != http.StatusBadGateway || e.Error.Code != "shard_unavailable" {
			t.Errorf("%s with every worker down: status %d code %q (%s), want 502 shard_unavailable",
				path, resp.StatusCode, e.Error.Code, body)
		}
	}
	if m := coord.Metrics(); m.QueryErrors != 2 || m.QueriesCancelled != 0 {
		t.Errorf("query_errors/queries_cancelled = %d/%d, want 2/0", m.QueryErrors, m.QueriesCancelled)
	}
}

// TestRemoteCorpusGuards: a remote corpus rejects local mutation (409) and
// reload (409), reports Remote in listings, and unregistering drops only
// the routing view.
func TestRemoteCorpusGuards(t *testing.T) {
	c := koko.WrapCorpus(corpus.GenCafes(corpus.BaristaMagConfig(11)).Corpus)
	wsvc, w := startWorker(t, "c", c, 3)

	coord := NewService(Config{MaxConcurrent: 4})
	if _, err := coord.ConnectWorkers(context.Background(), fastRemote(w.URL)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	var listing struct {
		Corpora []CorpusInfo `json:"corpora"`
	}
	getJSON(t, ts, "/v1/corpora", &listing)
	if len(listing.Corpora) != 1 || !listing.Corpora[0].Remote {
		t.Fatalf("coordinator listing = %+v, want one remote corpus", listing.Corpora)
	}

	resp, body := postJSON(t, ts, "/v1/corpora/c/documents", map[string]string{"name": "d", "text": "Cafe X."})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("ingest into remote corpus: status %d (%s), want 409", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts, "/v1/corpora/c/reload", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("reload of remote corpus: status %d (%s), want 409", resp.StatusCode, body)
	}

	if _, err := coord.DeleteCorpus("c"); err != nil {
		t.Fatalf("unregister remote corpus: %v", err)
	}
	if got := wsvc.Registry().Len(); got != 1 {
		t.Fatalf("worker lost its corpus on coordinator delete (len=%d)", got)
	}
}

// TestConnectWorkersDisagreement: workers serving different corpus shapes
// under one name must fail discovery, not silently merge mismatched data.
func TestConnectWorkersDisagreement(t *testing.T) {
	c1 := koko.WrapCorpus(corpus.GenCafes(corpus.BaristaMagConfig(11)).Corpus)
	c2 := koko.WrapCorpus(corpus.GenCafes(corpus.BaristaMagConfig(13)).Corpus)
	if c1.NumSentences() == c2.NumSentences() {
		t.Skip("generator seeds produced identical corpora; disagreement case is vacuous")
	}
	_, w1 := startWorker(t, "c", c1, 3)
	_, w2 := startWorker(t, "c", c2, 3)
	coord := NewService(Config{MaxConcurrent: 4})
	if _, err := coord.ConnectWorkers(context.Background(), fastRemote(w1.URL, w2.URL)); err == nil {
		t.Fatal("mismatched workers connected without error")
	}
}
