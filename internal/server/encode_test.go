package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/server/jobs"
	"repro/koko"
)

// The answer structs as they were before the tuple encoder: every answer
// tuple was copied into a TupleResult and rendered by encoding/json. Tests
// keep them as the oracle the encoder's client form must match byte for
// byte, and as the types they decode answers into.

type TupleResult struct {
	SentenceID int                `json:"sentence_id"`
	Document   int                `json:"document"`
	Values     []string           `json:"values"`
	Scores     map[string]float64 `json:"scores,omitempty"`
	Evidence   []EvidenceResult   `json:"evidence,omitempty"`
}

type EvidenceResult struct {
	Variable     string  `json:"variable"`
	Condition    string  `json:"condition"`
	Weight       float64 `json:"weight"`
	Confidence   float64 `json:"confidence"`
	Contribution float64 `json:"contribution"`
}

// queryJSON is the buffered /v1/query answer.
type queryJSON struct {
	Corpus        string         `json:"corpus"`
	Generation    uint64         `json:"generation"`
	Tuples        []TupleResult  `json:"tuples"`
	Candidates    int            `json:"candidates"`
	Matched       int            `json:"matched"`
	Cached        bool           `json:"cached"`
	Phases        PhaseMillis    `json:"phases"`
	Plan          *koko.PlanInfo `json:"plan,omitempty"`
	ServiceMillis float64        `json:"service_ms"`
	Degraded      bool           `json:"degraded,omitempty"`
	FailedShards  []int          `json:"failed_shards,omitempty"`
}

// streamJSON is one NDJSON line of a streamed answer.
type streamJSON struct {
	Tuple *TupleResult   `json:"tuple,omitempty"`
	Shard *ShardProgress `json:"shard,omitempty"`
	Done  *StreamSummary `json:"done,omitempty"`
	Error string         `json:"error,omitempty"`
}

// jobResultsJSON is the /v1/jobs/{id}/results answer.
type jobResultsJSON struct {
	ID         string     `json:"id"`
	State      jobs.State `json:"state"`
	Corpus     string     `json:"corpus"`
	Generation uint64     `json:"generation"`
	Error      string     `json:"error,omitempty"`
	Queries    []struct {
		Index       int           `json:"index"`
		Canonical   string        `json:"canonical"`
		Complete    bool          `json:"complete"`
		ShardsTotal int           `json:"shards_total"`
		ShardsDone  int           `json:"shards_done"`
		Tuples      []TupleResult `json:"tuples"`
		Candidates  int           `json:"candidates"`
		Matched     int           `json:"matched"`
	} `json:"queries"`
}

// tupleResultOf is the copy every answer tuple once went through.
func tupleResultOf(t koko.Tuple) TupleResult {
	tr := TupleResult{
		SentenceID: t.SentenceID,
		Document:   t.Document,
		Values:     t.Values,
		Scores:     t.Scores,
	}
	for _, ev := range t.Evidence {
		tr.Evidence = append(tr.Evidence, EvidenceResult{
			Variable:     ev.Variable,
			Condition:    ev.Condition,
			Weight:       ev.Weight,
			Confidence:   ev.Confidence,
			Contribution: ev.Contribution,
		})
	}
	return tr
}

// oracleTuples copies ts into their old client structs; never nil, as the
// old answers' tables were not.
func oracleTuples(ts []koko.Tuple) []TupleResult {
	out := make([]TupleResult, 0, len(ts))
	for _, t := range ts {
		out = append(out, tupleResultOf(t))
	}
	return out
}

// oracleJSON is what kokod's json.Encoder (HTML escaping off) wrote for v.
func oracleJSON(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// escapesText carries a quote, a backslash, <&> and a tab; escapesQuery
// extracts whole verb subtrees, so the values carry the first three, and
// its conditions, echoed into the evidence, carry the tab too.
const (
	escapesText  = "Cafe \"Vita\" <&> serves espresso\tdaily at back\\slash street.\nI ate a \"chocolate\" <&> cake\twith back\\slash icing."
	escapesQuery = "extract x:Str from \"escapes\" if (/ROOT:{ a = //verb, x = (a.subtree) } (a) eq (a)) " +
		"satisfying x (str(x) contains \"<&>\" {0.5}) or (str(x) contains \"\t\" {0.5}) with threshold 0.1"
)

// TestAnswerBytesMatchOldStructs pins every HTTP edge that carries tuples
// to the bytes the old structs rendered: for every demo query and a corpus
// of JSON-hostile text, explain off and on, the buffered body, each NDJSON
// tuple line and the job results body must equal encoding/json's rendering
// of tupleResultOf over the engine's own tuples. The non-tuple parts of
// each answer are taken from the answer itself, since they carry timings.
func TestAnswerBytesMatchOldStructs(t *testing.T) {
	ctx := context.Background()
	svc := NewService(Config{CacheSize: -1})
	if err := RegisterDemoCorpora(svc.Registry(), 1); err != nil {
		t.Fatal(err)
	}
	if err := svc.Registry().Register("escapes", koko.NewEngine(koko.NewCorpus([]string{"escapes.txt"}, []string{escapesText}), nil)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	queries := map[string]string{"escapes": escapesQuery}
	for corpus, q := range DemoQueries {
		queries[corpus] = q
	}
	for corpus, query := range queries {
		for _, explain := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/explain=%t", corpus, explain), func(t *testing.T) {
				req := QueryRequest{Corpus: corpus, Query: query, Explain: explain}
				ref, err := svc.Query(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				if len(ref.Tuples) == 0 {
					t.Fatal("no tuples")
				}
				want := oracleTuples(ref.Tuples)
				if corpus == "escapes" && explain {
					b := string(oracleJSON(t, want))
					for _, esc := range []string{`\"`, `\\`, `<&>`, `\t`} {
						if !strings.Contains(b, esc) {
							t.Fatalf("no %s reaches the answer: %s", esc, b)
						}
					}
				}

				// The bench mirror encodes *QueryResponse with encoding/json.
				mirror := oracleJSON(t, ref)
				var old queryJSON
				if err := json.Unmarshal(mirror, &old); err != nil {
					t.Fatal(err)
				}
				old.Tuples = want
				if w := oracleJSON(t, old); !bytes.Equal(mirror, w) {
					t.Fatalf("encoding/json of QueryResponse differs from the old structs':\n got %s\nwant %s", mirror, w)
				}

				resp, body := postJSON(t, ts, "/v1/query", req)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("buffered status %d: %s", resp.StatusCode, body)
				}
				var buffered queryJSON
				if err := json.Unmarshal(body, &buffered); err != nil {
					t.Fatal(err)
				}
				buffered.Tuples = want
				if w := oracleJSON(t, buffered); !bytes.Equal(body, w) {
					t.Fatalf("buffered body differs from the old structs':\n got %s\nwant %s", body, w)
				}

				resp, body = postJSON(t, ts, "/v1/query?stream=1", req)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("stream status %d: %s", resp.StatusCode, body)
				}
				n := 0
				sc := bufio.NewScanner(bytes.NewReader(body))
				for sc.Scan() {
					line := append(bytes.Clone(sc.Bytes()), '\n')
					var ev streamJSON
					if err := json.Unmarshal(line, &ev); err != nil {
						t.Fatalf("bad NDJSON line %q: %v", line, err)
					}
					if ev.Tuple != nil {
						if n >= len(want) {
							t.Fatalf("more tuple lines than %d tuples", len(want))
						}
						ev.Tuple = &want[n]
						// The bench mirror encodes StreamEvent with encoding/json.
						if viaJSON := oracleJSON(t, StreamEvent{Tuple: (*Tuple)(&ref.Tuples[n])}); !bytes.Equal(viaJSON, line) {
							t.Fatalf("encoding/json of tuple event %d differs from its NDJSON line:\n got %s\nwant %s", n, viaJSON, line)
						}
						n++
					}
					if w := oracleJSON(t, ev); !bytes.Equal(line, w) {
						t.Fatalf("NDJSON line differs from the old structs':\n got %s\nwant %s", line, w)
					}
				}
				if n != len(want) {
					t.Fatalf("%d tuple lines, want %d", n, len(want))
				}

				resp, body = postJSON(t, ts, "/v1/jobs", jobs.Spec{Corpus: corpus, Queries: []string{query}, Explain: explain})
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("job submit status %d: %s", resp.StatusCode, body)
				}
				var st jobs.Status
				if err := json.Unmarshal(body, &st); err != nil {
					t.Fatal(err)
				}
				waitJobState(t, ts, st.ID, jobs.StateDone)
				hr, err := ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID + "/results")
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				_, err = buf.ReadFrom(hr.Body)
				hr.Body.Close()
				if err != nil || hr.StatusCode != http.StatusOK {
					t.Fatalf("job results: status %d, %v", hr.StatusCode, err)
				}
				var jr jobResultsJSON
				if err := json.Unmarshal(buf.Bytes(), &jr); err != nil {
					t.Fatal(err)
				}
				if len(jr.Queries) != 1 {
					t.Fatalf("%d job queries, want 1", len(jr.Queries))
				}
				jr.Queries[0].Tuples = want
				if w := oracleJSON(t, jr); !bytes.Equal(buf.Bytes(), w) {
					t.Fatalf("job results body differs from the old structs':\n got %s\nwant %s", buf.Bytes(), w)
				}
			})
		}
	}
}

// TestEncoderErrorAnswers500: a tuple the encoder refuses (a non-finite
// score, which encoding/json refuses too) fails a buffered answer before
// its status line, as 500 internal with the standard error body, not as a
// 200 with a cut body.
func TestEncoderErrorAnswers500(t *testing.T) {
	svc := NewService(Config{})
	if err := RegisterDemoCorpora(svc.Registry(), 1); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	corpus, query := "demo-cafes", DemoQueries["demo-cafes"]
	p, err := koko.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	_, gen, err := svc.Registry().Engine(corpus)
	if err != nil {
		t.Fatal(err)
	}
	// A cached result is served as it is: plant one with a NaN score.
	svc.cache.put(cacheKey{corpus: corpus, gen: gen, canonical: p.Canonical()}, &drained{
		sum: &koko.Result{}, tuples: 1, held: true, batches: []koko.Batch{koko.BatchOf([]koko.Tuple{
			{SentenceID: 1, Values: []string{"Cafe Vita"}, Scores: map[string]float64{"x": math.NaN()}},
		})},
	})
	resp, body := postJSON(t, ts, "/v1/query", QueryRequest{Corpus: corpus, Query: query})
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("undecodable error body %q: %v", body, err)
	}
	if resp.StatusCode != http.StatusInternalServerError || e.Error.Code != "internal" || !strings.Contains(e.Error.Message, "NaN") {
		t.Fatalf("status %d, body %s; want 500 internal naming NaN", resp.StatusCode, body)
	}
}

// discardWriter is a ResponseWriter that counts the body and keeps none of
// it.
type discardWriter struct {
	h http.Header
	n int
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) WriteHeader(int)     {}
func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// TestBufferedAnswerReusesItsBody: a buffered answer is built in a buffer
// kept between requests. Grown afresh for every answer, the body costs
// several times its size in allocation, and the collections that garbage
// sets off at the end of an answer go on running after it is sent. A cached
// answer of half a megabyte must allocate well under its own size.
func TestBufferedAnswerReusesItsBody(t *testing.T) {
	svc := NewService(Config{MaxConcurrent: 1})
	if err := svc.Registry().Register("h", koko.NewEngine(koko.WrapCorpus(corpus.GenHappyDB(3000, 7)), nil)); err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	req, err := json.Marshal(QueryRequest{Corpus: "h", Query: `extract v:Str from "d" if (/ROOT:{ v = //verb })`})
	if err != nil {
		t.Fatal(err)
	}
	serve := func() (alloc uint64, n int) {
		w := &discardWriter{h: http.Header{}}
		r := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(req))
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		h.ServeHTTP(w, r)
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc, w.n
	}
	serve() // evaluates and caches the answer
	// The least of several: under the race detector sync.Pool drops a
	// quarter of what it is given.
	least, n := uint64(math.MaxUint64), 0
	for range 8 {
		a, m := serve()
		least, n = min(least, a), m
	}
	if n < 200_000 {
		t.Fatalf("body of %d bytes; want a large answer", n)
	}
	t.Logf("body %d bytes, allocated %d", n, least)
	if least > uint64(n/4) {
		t.Errorf("a cached %d-byte answer allocated %d bytes; want under a quarter of the body", n, least)
	}
}

// lateFailure is a Querier whose shard fail is lost after it delivered its
// tuples: a degraded run must then drop them again.
type lateFailure struct {
	koko.Querier
	fail int
}

func (q lateFailure) Run(ctx context.Context, p *koko.ParsedQuery, qo *koko.QueryOptions) (*koko.TupleSeq, error) {
	return koko.StreamShards(ctx, q.NumShards(), 1, func(ctx context.Context, shard int, emit func(koko.Batch) error) (*koko.Result, error) {
		res, err := q.StreamShard(ctx, shard, p, qo, emit)
		if err == nil && shard == q.fail {
			err = errors.New("shard lost after its tuples")
		}
		return res, err
	}, qo != nil && qo.Degraded), nil
}

// TestDegradedBufferedAnswerDropsFailedShard: a buffered answer encodes
// tuples as they arrive, so a shard that fails after delivering some must
// have its encoded tuples cut from the body again. The body must hold
// exactly Query's (Collect's) tuples: the surviving shards', in order.
func TestDegradedBufferedAnswerDropsFailedShard(t *testing.T) {
	c := koko.WrapCorpus(corpus.GenCafes(corpus.BaristaMagConfig(11)).Corpus)
	svc := NewService(Config{})
	// A routing entry serves the Querier as it is (Register would wrap it).
	svc.Registry().RegisterRemote("c", "", lateFailure{koko.NewShardedEngine(c, 3, nil), 1})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	q := `extract x:Entity from "blogs" if () satisfying x (str(x) contains "Cafe" {1.0}) with threshold 0.5`
	p, err := koko.ParseQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	if _, err := koko.NewShardedEngine(c, 3, nil).StreamShard(context.Background(), 1, p, nil, func(b koko.Batch) error {
		lost += b.Len()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if lost == 0 {
		t.Fatal("the failing shard has no tuples to drop")
	}
	ref, err := svc.Query(context.Background(), QueryRequest{Corpus: "c", Query: q, Partial: true, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Degraded || !slices.Equal(ref.FailedShards, []int{1}) || len(ref.Tuples) == 0 {
		t.Fatalf("Query: degraded %t, failed shards %v, %d tuples; want shard 1 dropped and tuples left", ref.Degraded, ref.FailedShards, len(ref.Tuples))
	}
	resp, body := postJSON(t, ts, "/v1/query?partial=ok", QueryRequest{Corpus: "c", Query: q, NoCache: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got queryJSON
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	got.Tuples = oracleTuples(ref.Tuples)
	if w := oracleJSON(t, got); !bytes.Equal(body, w) {
		t.Fatalf("degraded body differs from Query's tuples:\n got %s\nwant %s", body, w)
	}
}
