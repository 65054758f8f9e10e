// The failure matrix: every way a worker can fail — dead at connect, dying
// mid-response, returning 500, exceeding the attempt deadline, returning a
// corrupt partial — crossed with {replica available, no replica}. With a
// replica the distributed result must stay byte-identical to a single-node
// run; without one the query must fail with the typed ErrShardUnavailable,
// never a hang or a wrong answer. The workers are real Services behind
// httptest, so the wire format, the worker handler, and the fault-tolerance
// ladder are all in the loop. (External test package: the workers come from
// internal/server, which itself imports this package.)
package remote_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/server"
	"repro/koko"
	"repro/koko/remote"
)

const cafeExtract = `
	extract x:Entity from "blogs" if ()
	satisfying x
	(str(x) contains "Cafe" {0.6}) or
	(x [["serves coffee"]] {0.3}) or
	(x [["hired barista"]] {0.3})
	with threshold 0.5`

const workerShards = 3

func cafesCorpus() *koko.Corpus {
	return koko.WrapCorpus(corpus.GenCafes(corpus.BaristaMagConfig(11)).Corpus)
}

// newWorker serves c as corpus "cafes" (sharded) over real HTTP.
func newWorker(t *testing.T, c *koko.Corpus) *httptest.Server {
	t.Helper()
	svc := server.NewService(server.Config{MaxConcurrent: 8})
	if err := svc.Registry().Register("cafes", koko.NewShardedEngine(c, workerShards, nil)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// flaky wraps a worker handler and sabotages shard-eval requests on demand.
type flaky struct {
	inner http.Handler
	mode  atomic.Value // "", "abort", "500", "slow"
	// failN, when positive, 500s that many shard-eval requests and then
	// serves cleanly — deterministic "fails then recovers".
	failN atomic.Int32
}

func (f *flaky) setMode(m string) { f.mode.Store(m) }

func (f *flaky) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	mode, _ := f.mode.Load().(string)
	if r.URL.Path == remote.EvalPath && f.failN.Load() > 0 && f.failN.Add(-1) >= 0 {
		http.Error(w, "injected transient error", http.StatusInternalServerError)
		return
	}
	if r.URL.Path != remote.EvalPath || mode == "" {
		f.inner.ServeHTTP(w, r)
		return
	}
	switch mode {
	case "abort":
		// Die mid-stream: a 200 header, half an NDJSON line, then the
		// connection snaps (http.ErrAbortHandler resets it).
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"tuples":[{"sentence_id":`))
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		panic(http.ErrAbortHandler)
	case "500":
		http.Error(w, "injected internal error", http.StatusInternalServerError)
	case "slow":
		// Exceed the attempt deadline; the client must give up first.
		time.Sleep(400 * time.Millisecond)
		http.Error(w, "too late", http.StatusInternalServerError)
	}
}

// newFlakyWorker is newWorker behind a sabotage wrapper.
func newFlakyWorker(t *testing.T, c *koko.Corpus) (*httptest.Server, *flaky) {
	t.Helper()
	svc := server.NewService(server.Config{MaxConcurrent: 8})
	if err := svc.Registry().Register("cafes", koko.NewShardedEngine(c, workerShards, nil)); err != nil {
		t.Fatal(err)
	}
	f := &flaky{inner: svc.Handler()}
	ts := httptest.NewServer(f)
	t.Cleanup(ts.Close)
	return ts, f
}

// placementOver routes every shard to the same replica list.
func placementOver(nodes ...string) koko.Placement {
	p := koko.Placement{Replicas: make([][]string, workerShards)}
	for i := range p.Replicas {
		p.Replicas[i] = append([]string(nil), nodes...)
	}
	return p
}

// newRemoteEngine assembles an Engine over the given nodes with fast-failure
// tuning (short attempts, tiny backoff, hedging off unless cfg overrides).
func newRemoteEngine(c *koko.Corpus, cfg remote.PoolConfig, nodes ...string) *remote.Engine {
	if cfg.AttemptTimeout == 0 {
		cfg.AttemptTimeout = 150 * time.Millisecond
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = -1
	}
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = time.Millisecond
	}
	if cfg.BackoffMax == 0 {
		cfg.BackoffMax = 5 * time.Millisecond
	}
	pool := remote.NewPool(cfg)
	return remote.NewEngine(pool, remote.EngineConfig{
		Corpus:    "cafes",
		Placement: placementOver(nodes...),
		Meta: remote.Meta{
			Generation: 1, // each worker Registers once, so both serve gen 1
			Documents:  c.NumDocuments(),
			Sentences:  c.NumSentences(),
		},
	})
}

// runQuery parses src and collects its Run on q.
func runQuery(q koko.Querier, src string) (*koko.Result, error) {
	p, err := koko.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	seq, err := q.Run(context.Background(), p, nil)
	if err != nil {
		return nil, err
	}
	return seq.Collect()
}

// sameResult compares everything except timing.
func sameResult(t *testing.T, label string, want, got *koko.Result) {
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

func TestFailureMatrix(t *testing.T) {
	c := cafesCorpus()
	ref, err := koko.NewEngine(c, nil).Query(cafeExtract)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Tuples) == 0 {
		t.Fatal("reference workload produces no tuples; matrix is vacuous")
	}

	modes := []string{"dead-at-connect", "mid-stream-abort", "status-500", "deadline-exceeded", "corrupt-partial"}
	for _, mode := range modes {
		for _, withReplica := range []bool{true, false} {
			name := mode + "/no-replica"
			if withReplica {
				name = mode + "/replica"
			}
			t.Run(name, func(t *testing.T) {
				var cfg remote.PoolConfig
				// The faulty node, per mode.
				var faultyURL string
				switch mode {
				case "dead-at-connect":
					dead := newWorker(t, c)
					faultyURL = dead.URL
					dead.Close() // connection refused from the first attempt
				case "corrupt-partial":
					w := newWorker(t, c)
					faultyURL = w.URL
					fp := NewFaultPolicy(42)
					fp.Set(faultyURL, NodeFaults{CorruptProb: 1})
					cfg.Transport = fp
				default:
					w, f := newFlakyWorker(t, c)
					faultyURL = w.URL
					switch mode {
					case "mid-stream-abort":
						f.setMode("abort")
					case "status-500":
						f.setMode("500")
					case "deadline-exceeded":
						f.setMode("slow")
					}
				}

				nodes := []string{faultyURL}
				if withReplica {
					nodes = append(nodes, newWorker(t, c).URL)
				}
				eng := newRemoteEngine(c, cfg, nodes...)
				res, err := runQuery(eng, cafeExtract)
				if withReplica {
					if err != nil {
						t.Fatalf("with a replica the query must survive %s: %v", mode, err)
					}
					sameResult(t, mode, ref, res)
					return
				}
				if err == nil {
					t.Fatalf("without a replica %s must fail, got %d tuples", mode, len(res.Tuples))
				}
				if !errors.Is(err, remote.ErrShardUnavailable) {
					t.Fatalf("error is not ErrShardUnavailable: %v", err)
				}
				var su *remote.ShardUnavailableError
				if !errors.As(err, &su) {
					t.Fatalf("error does not carry *ShardUnavailableError: %v", err)
				}
				if su.Attempts < 2 {
					t.Errorf("gave up after %d attempts, want retries", su.Attempts)
				}
				if mode == "corrupt-partial" && !errors.Is(err, remote.ErrCorruptPartial) {
					t.Errorf("corrupt partial should surface ErrCorruptPartial: %v", err)
				}
			})
		}
	}
}

// malformedWorker fronts a real worker and damages the first tuple line of
// every shard-eval response in one way; the lines after it pass unchanged.
type malformedWorker struct {
	inner http.Handler
	mode  string
}

func (m *malformedWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != remote.EvalPath {
		m.inner.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	m.inner.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	if rec.Code == http.StatusOK && bytes.HasPrefix(body, []byte(`{"tuples":[`)) {
		first, rest, _ := bytes.Cut(body, []byte("\n"))
		var line []byte
		switch m.mode {
		case "cut-mid-string":
			// A few bytes into the first value, then the response ends.
			body = first[:bytes.Index(first, []byte(`"values":["`))+len(`"values":["`)+2]
		case "spaces":
			line = bytes.Replace(first, []byte(`{"tuples":[`), []byte(`{ "tuples": [`), 1)
		case "reordered-keys":
			i := bytes.LastIndex(first, []byte(`],"crc32c":`))
			tuples, sum := first[len(`{"tuples":`):i+1], first[i+len(`],"crc32c":`):len(first)-1]
			line = []byte(`{"crc32c":` + string(sum) + `,"tuples":` + string(tuples) + `}`)
		case "trailing-bytes":
			line = append(first[:len(first):len(first)], `{}`...)
		}
		if line != nil {
			body = append(append(line, '\n'), rest...)
		}
	}
	w.Header().Set("Content-Type", rec.Header().Get("Content-Type"))
	w.WriteHeader(rec.Code)
	w.Write(body)
}

// TestMalformedLineFailsAttempt: a shard-eval line the frame parser
// rejects — cut mid-string before EOF, valid JSON in a non-canonical form,
// or trailing bytes after its closing brace — fails the attempt, never the
// node's process: with a replica the result is identical and a retry is
// counted; without one the query fails with ErrShardUnavailable.
func TestMalformedLineFailsAttempt(t *testing.T) {
	c := cafesCorpus()
	ref, err := koko.NewEngine(c, nil).Query(cafeExtract)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"cut-mid-string", "spaces", "reordered-keys", "trailing-bytes"} {
		for _, withReplica := range []bool{true, false} {
			name := mode + "/no-replica"
			if withReplica {
				name = mode + "/replica"
			}
			t.Run(name, func(t *testing.T) {
				svc := server.NewService(server.Config{MaxConcurrent: 8})
				if err := svc.Registry().Register("cafes", koko.NewShardedEngine(c, workerShards, nil)); err != nil {
					t.Fatal(err)
				}
				bad := httptest.NewServer(&malformedWorker{inner: svc.Handler(), mode: mode})
				t.Cleanup(bad.Close)
				nodes := []string{bad.URL}
				if withReplica {
					nodes = append(nodes, newWorker(t, c).URL)
				}
				eng := newRemoteEngine(c, remote.PoolConfig{}, nodes...)
				res, err := runQuery(eng, cafeExtract)
				if withReplica {
					if err != nil {
						t.Fatalf("with a replica the query must survive a malformed line: %v", err)
					}
					sameResult(t, mode, ref, res)
					if enginePoolCounters(eng).Retries.Load() == 0 {
						t.Error("no retry counted for the malformed line")
					}
					return
				}
				if !errors.Is(err, remote.ErrShardUnavailable) {
					t.Fatalf("without a replica a malformed line must give ErrShardUnavailable, got %v", err)
				}
				if mode == "cut-mid-string" {
					if !errors.Is(err, io.ErrUnexpectedEOF) {
						t.Errorf("a line cut by EOF should surface io.ErrUnexpectedEOF: %v", err)
					}
				} else if !strings.Contains(err.Error(), "malformed chunk line") {
					t.Errorf("error does not name the malformed line: %v", err)
				}
			})
		}
	}
}

// corruptWorker fronts a real worker and flips one byte inside the first
// value of the first tuple line of every shard-eval response, leaving the
// line's CRC as the worker stamped it. It records the damaged value.
type corruptWorker struct {
	inner   http.Handler
	mu      sync.Mutex
	damaged []string
}

func (c *corruptWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != remote.EvalPath {
		c.inner.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	c.inner.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	if i := bytes.Index(body, []byte(`"values":["`)); i >= 0 && bytes.HasPrefix(body, []byte(`{"tuples":`)) {
		i += len(`"values":["`)
		body[i] ^= 1 // a letter stays a letter: the tuple is still canonical
		c.mu.Lock()
		c.damaged = append(c.damaged, string(body[i-1:i+bytes.IndexByte(body[i:], '"')+1]))
		c.mu.Unlock()
	}
	w.Header().Set("Content-Type", rec.Header().Get("Content-Type"))
	w.WriteHeader(rec.Code)
	w.Write(body)
}

// TestCorruptValueNeverForwarded: a worker whose tuple bytes changed under
// their CRC fails the attempt with ErrCorruptPartial before the coordinator
// forwards anything of the batch: no answer byte carries the damaged value.
// With a replica the answer is identical to a single node's; without one
// the shard is unavailable.
func TestCorruptValueNeverForwarded(t *testing.T) {
	c := cafesCorpus()
	ref, err := koko.NewEngine(c, nil).Query(cafeExtract)
	if err != nil {
		t.Fatal(err)
	}
	p, err := koko.ParseQuery(cafeExtract)
	if err != nil {
		t.Fatal(err)
	}
	for _, withReplica := range []bool{true, false} {
		t.Run(map[bool]string{true: "replica", false: "no-replica"}[withReplica], func(t *testing.T) {
			svc := server.NewService(server.Config{MaxConcurrent: 8})
			if err := svc.Registry().Register("cafes", koko.NewShardedEngine(c, workerShards, nil)); err != nil {
				t.Fatal(err)
			}
			cw := &corruptWorker{inner: svc.Handler()}
			bad := httptest.NewServer(cw)
			t.Cleanup(bad.Close)
			nodes := []string{bad.URL}
			if withReplica {
				nodes = append(nodes, newWorker(t, c).URL)
			}
			eng := newRemoteEngine(c, remote.PoolConfig{}, nodes...)
			seq, err := eng.Run(context.Background(), p, nil)
			if err != nil {
				t.Fatal(err)
			}
			var answer []byte
			var got []koko.Tuple
			for ev := range seq.Events() {
				if ev.Shard != nil {
					continue
				}
				if answer, err = ev.Batch.AppendJSON(answer); err != nil {
					t.Fatal(err)
				}
				ts, err := ev.Batch.Tuples()
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, ts...)
			}
			cw.mu.Lock()
			damaged := cw.damaged
			cw.mu.Unlock()
			if len(damaged) == 0 {
				t.Fatal("no tuple line was damaged; the test is vacuous")
			}
			for _, d := range damaged {
				if bytes.Contains(answer, []byte(d)) {
					t.Fatalf("the damaged value %s reached the answer", d)
				}
			}
			if n := enginePoolCounters(eng).CorruptPartials.Load(); n == 0 {
				t.Error("no corrupt partial counted")
			}
			err = seq.Err()
			if withReplica {
				if err != nil {
					t.Fatalf("with a replica the query must survive a corrupt batch: %v", err)
				}
				sameResult(t, "corrupt value", ref, &koko.Result{Tuples: got, Candidates: ref.Candidates, Matched: ref.Matched})
				return
			}
			if !errors.Is(err, remote.ErrShardUnavailable) || !errors.Is(err, remote.ErrCorruptPartial) {
				t.Fatalf("without a replica: %v, want ErrShardUnavailable from ErrCorruptPartial", err)
			}
		})
	}
}

// TestRetryCountersAndRecovery: a node that 500s a few times then recovers
// — the query must succeed via retries on the same node set and the
// counters must show the attempts.
func TestRetryCountersAndRecovery(t *testing.T) {
	c := cafesCorpus()
	w, f := newFlakyWorker(t, c)
	eng := newRemoteEngine(c, remote.PoolConfig{MaxAttempts: 4, BreakerThreshold: 100}, w.URL)

	ref, err := koko.NewEngine(c, nil).Query(cafeExtract)
	if err != nil {
		t.Fatal(err)
	}
	f.failN.Store(2) // first two shard evals 500, then the worker is healthy
	res, err := runQuery(eng, cafeExtract)
	if err != nil {
		t.Fatalf("query did not recover: %v", err)
	}
	sameResult(t, "recovered", ref, res)
	ctrs := enginePoolCounters(eng)
	if ctrs.Attempts.Load() <= int64(workerShards) {
		t.Errorf("attempts = %d, want more than one per shard", ctrs.Attempts.Load())
	}
	if ctrs.Retries.Load() == 0 {
		t.Error("retries counter stayed 0 despite injected failures")
	}
}

// TestHedgingCutsTailLatency: the primary replica of some shards delays
// every attempt far beyond the hedge threshold; the hedge must win on the
// other replica, keep the result byte-identical, and finish well before the
// injected delay.
func TestHedgingCutsTailLatency(t *testing.T) {
	c := cafesCorpus()
	slow := newWorker(t, c)
	fast := newWorker(t, c)
	fp := NewFaultPolicy(7)
	fp.Set(slow.URL, NodeFaults{DelayProb: 1, Delay: 2 * time.Second})
	eng := newRemoteEngine(c, remote.PoolConfig{
		AttemptTimeout: 5 * time.Second,
		HedgeAfter:     20 * time.Millisecond,
		Transport:      fp,
	}, slow.URL, fast.URL)

	ref, err := koko.NewEngine(c, nil).Query(cafeExtract)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	res, err := runQuery(eng, cafeExtract)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(t0); elapsed > 1500*time.Millisecond {
		t.Errorf("hedged query took %s; the 2s injected delay leaked into the critical path", elapsed)
	}
	sameResult(t, "hedged", ref, res)
	ctrs := enginePoolCounters(eng)
	if ctrs.HedgesFired.Load() == 0 {
		t.Error("no hedges fired despite a 2s-slow primary and a 20ms threshold")
	}
	if ctrs.HedgeWins.Load() == 0 {
		t.Error("no hedge wins recorded")
	}
}

// TestBreakerTripsAndRecovers: enough consecutive failures open the node's
// breaker (counted), and after the cooloff a half-open probe lets a
// recovered node serve again.
func TestBreakerTripsAndRecovers(t *testing.T) {
	c := cafesCorpus()
	w, f := newFlakyWorker(t, c)
	f.setMode("500")
	eng := newRemoteEngine(c, remote.PoolConfig{
		MaxAttempts:      2,
		BreakerThreshold: 2,
		BreakerCooloff:   50 * time.Millisecond,
	}, w.URL)

	if _, err := runQuery(eng, cafeExtract); !errors.Is(err, remote.ErrShardUnavailable) {
		t.Fatalf("want ErrShardUnavailable while the worker 500s, got %v", err)
	}
	ctrs := enginePoolCounters(eng)
	if ctrs.BreakerOpen.Load() == 0 {
		t.Fatal("breaker never opened despite consecutive failures")
	}

	f.setMode("")
	time.Sleep(60 * time.Millisecond) // past the cooloff: half-open admits a probe
	ref, err := koko.NewEngine(c, nil).Query(cafeExtract)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runQuery(eng, cafeExtract)
	if err != nil {
		t.Fatalf("query after recovery: %v", err)
	}
	sameResult(t, "post-breaker", ref, res)
}

// TestDegradedExecution: with one shard's only replica dead, the degraded
// path returns the surviving shards' tuples (exact global attribution) and
// names the failed shard; with every replica dead it errors.
func TestDegradedExecution(t *testing.T) {
	c := cafesCorpus()
	alive := newWorker(t, c)
	dead := newWorker(t, c)
	dead.Close()

	pool := remote.NewPool(remote.PoolConfig{
		AttemptTimeout: 150 * time.Millisecond, MaxAttempts: 2,
		HedgeAfter: -1, BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond,
	})
	pl := placementOver(alive.URL)
	pl.Replicas[1] = []string{dead.URL} // shard 1 has no surviving replica
	eng := remote.NewEngine(pool, remote.EngineConfig{
		Corpus: "cafes", Placement: pl,
		Meta: remote.Meta{Generation: 1, Documents: c.NumDocuments(), Sentences: c.NumSentences()},
	})

	p, err := koko.ParseQuery(cafeExtract)
	if err != nil {
		t.Fatal(err)
	}
	res, seq := runDegraded(t, eng, p)
	if failed := seq.FailedShards(); len(failed) != 1 || failed[0] != 1 {
		t.Fatalf("failed shards = %v, want [1]", failed)
	}
	ref, err := koko.NewEngine(c, nil).Query(cafeExtract)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) == 0 || len(res.Tuples) >= len(ref.Tuples) {
		t.Fatalf("degraded result has %d tuples; want a non-empty strict subset of %d", len(res.Tuples), len(ref.Tuples))
	}
	// Every surviving tuple must appear in the reference with the exact same
	// global attribution — degradation drops shards, it never shifts them.
	for _, tu := range res.Tuples {
		found := false
		for _, rt := range ref.Tuples {
			if reflect.DeepEqual(tu, rt) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("degraded tuple %+v not in the reference result", tu)
		}
	}

	// All replicas dead: no partial answer to give.
	allDead := remote.NewEngine(pool, remote.EngineConfig{
		Corpus: "cafes", Placement: placementOver(dead.URL),
		Meta: remote.Meta{Generation: 1, Documents: c.NumDocuments(), Sentences: c.NumSentences()},
	})
	res, seq = runDegraded(t, allDead, p)
	if failed := seq.FailedShards(); len(failed) != workerShards || len(res.Tuples) != 0 {
		t.Fatalf("all-shards-dead degraded run: failed=%v, %d tuples; want every shard failed and no tuples", failed, len(res.Tuples))
	}
	if !errors.Is(seq.FailedErr(), remote.ErrShardUnavailable) {
		t.Fatalf("all-shards-dead degraded run: FailedErr = %v, want ErrShardUnavailable", seq.FailedErr())
	}
}

// runDegraded collects Run with QueryOptions.Degraded: the surviving
// shards' merge, plus the drained stream for FailedShards/FailedErr.
func runDegraded(t *testing.T, eng *remote.Engine, p *koko.ParsedQuery) (*koko.Result, *koko.TupleSeq) {
	t.Helper()
	seq, err := eng.Run(context.Background(), p, &koko.QueryOptions{Degraded: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := seq.Collect()
	if err != nil {
		t.Fatalf("degraded run failed outright: %v", err)
	}
	return res, seq
}

// TestChunkedSlowConsumerDoesNotTripIdleTimeout: the chunked attempt's idle
// deadline bounds network idleness, not consumer pacing. An emit that
// blocks far past AttemptTimeout — an ordered merge holding the shard's
// delivery turn, or a paused NDJSON client — must not cancel the attempt,
// burn retries, or charge the node's breaker; before the deadline was
// suspended around emit, this exact scenario failed whole queries with
// ErrShardUnavailable. The worker is hand-rolled so the stream is provably
// still open while emit sleeps: it holds the remaining lines until the
// consumer signals its slow emit returned, so they cannot pre-buffer on the
// client and hide the cancellation.
func TestChunkedSlowConsumerDoesNotTripIdleTimeout(t *testing.T) {
	batch1 := []koko.Tuple{{SentenceID: 1, Document: 0, Values: []string{"Cafe Vita"}}}
	batch2 := []koko.Tuple{{SentenceID: 2, Document: 0, Values: []string{"Cafe Ladro"}}}
	emitted := make(chan struct{}, 4) // a retrying client may signal more than once
	mux := http.NewServeMux()
	mux.HandleFunc(remote.EvalPath, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fl := w.(http.Flusher)
		writeLine := func(l *remote.ChunkLine) {
			line, err := remote.AppendChunkLine(nil, l)
			if err != nil {
				panic(err)
			}
			w.Write(line)
		}
		writeLine(&remote.ChunkLine{Tuples: koko.BatchOf(batch1)})
		fl.Flush()
		select {
		case <-emitted: // the consumer's slow emit has returned
		case <-r.Context().Done():
			return // the idle timer killed the attempt mid-emit: the regression
		}
		writeLine(&remote.ChunkLine{Tuples: koko.BatchOf(batch2)})
		writeLine(&remote.ChunkLine{Done: &remote.ChunkDone{
			Summary:    &koko.Result{Candidates: 2, Matched: 2},
			Tuples:     2,
			Generation: 1,
			Checksum:   remote.CountersChecksum(2, 2, 2),
		}})
		fl.Flush()
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	const attemptTimeout = 100 * time.Millisecond
	pool := remote.NewPool(remote.PoolConfig{
		AttemptTimeout: attemptTimeout, HedgeAfter: -1,
		BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond,
	})
	eng := remote.NewEngine(pool, remote.EngineConfig{
		Corpus:    "cafes",
		Placement: koko.Placement{Replicas: [][]string{{ts.URL}}},
		Meta:      remote.Meta{Generation: 1},
	})
	p, err := koko.ParseQuery(cafeExtract)
	if err != nil {
		t.Fatal(err)
	}
	total, slept := 0, false
	_, err = eng.StreamShard(context.Background(), 0, p, nil, func(b koko.Batch) error {
		if !slept {
			slept = true
			time.Sleep(4 * attemptTimeout) // pure consumer pacing, >> the idle deadline
			emitted <- struct{}{}
		}
		total += b.Len()
		return nil
	})
	if err != nil {
		t.Fatalf("slow consumer tripped the attempt: %v", err)
	}
	if total != 2 {
		t.Fatalf("streamed %d tuples, want 2", total)
	}
	ctrs := pool.Counters()
	if got := ctrs.Attempts.Load(); got != 1 {
		t.Errorf("attempts = %d, want 1: consumer pacing must not burn attempts", got)
	}
	if got := ctrs.Retries.Load(); got != 0 {
		t.Errorf("retries = %d, want 0", got)
	}
	if got := ctrs.BreakerOpen.Load(); got != 0 {
		t.Errorf("breaker opened %d times under a slow consumer", got)
	}
}

// resumeProxy fronts a one-shard worker and records the Skip of every
// shard-eval request it sees. With abort set it forwards only the first
// chunk line of the worker's response, recording that line's tuple count,
// and then kills the connection mid-stream.
type resumeProxy struct {
	inner     http.Handler
	abort     bool
	mu        sync.Mutex
	skips     []int
	forwarded []int
}

func (p *resumeProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != remote.EvalPath {
		p.inner.ServeHTTP(w, r)
		return
	}
	body, _ := io.ReadAll(r.Body)
	var req remote.ShardEvalRequest
	json.Unmarshal(body, &req)
	r.Body = io.NopCloser(bytes.NewReader(body))
	p.mu.Lock()
	p.skips = append(p.skips, req.Skip)
	p.mu.Unlock()
	if !p.abort {
		p.inner.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	p.inner.ServeHTTP(rec, r)
	first, _, _ := bytes.Cut(rec.Body.Bytes(), []byte("\n"))
	var line remote.ChunkLine
	remote.ParseChunkLine(first, &line)
	p.mu.Lock()
	p.forwarded = append(p.forwarded, line.Tuples.Len())
	p.mu.Unlock()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	w.Write(append(first, '\n'))
	w.(http.Flusher).Flush()
	panic(http.ErrAbortHandler)
}

// recorded returns copies of the recorded skips and forwarded counts.
func (p *resumeProxy) recorded() (skips, forwarded []int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]int(nil), p.skips...), append([]int(nil), p.forwarded...)
}

// TestChunkedRetryResumesAfterDeliveredPrefix: the coordinator half of
// retry-resume. The first replica streams one batch and dies; that batch
// has already gone downstream, so the retry on the other replica must ask
// to skip exactly the delivered tuples (ShardEvalRequest.Skip), and the
// stitched stream must equal a single-node run.
func TestChunkedRetryResumesAfterDeliveredPrefix(t *testing.T) {
	c := cafesCorpus()
	ref, err := koko.NewEngine(c, nil).Query(cafeExtract)
	if err != nil {
		t.Fatal(err)
	}
	serve := func(abort bool) (*httptest.Server, *resumeProxy) {
		svc := server.NewService(server.Config{MaxConcurrent: 8})
		if err := svc.Registry().Register("cafes", koko.NewEngine(c, nil)); err != nil {
			t.Fatal(err)
		}
		p := &resumeProxy{inner: svc.Handler(), abort: abort}
		ts := httptest.NewServer(p)
		t.Cleanup(ts.Close)
		return ts, p
	}
	dying, dp := serve(true)
	healthy, hp := serve(false)
	pool := remote.NewPool(remote.PoolConfig{
		AttemptTimeout: 5 * time.Second, HedgeAfter: -1,
		BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond,
	})
	eng := remote.NewEngine(pool, remote.EngineConfig{
		Corpus:    "cafes",
		Placement: koko.Placement{Replicas: [][]string{{dying.URL, healthy.URL}}},
		Meta:      remote.Meta{Generation: 1, Documents: c.NumDocuments(), Sentences: c.NumSentences()},
	})
	got, err := runQuery(eng, cafeExtract)
	if err != nil {
		t.Fatalf("query did not survive a mid-stream abort: %v", err)
	}
	_, forwarded := dp.recorded()
	skips, _ := hp.recorded()
	if len(forwarded) != 1 || forwarded[0] == 0 || forwarded[0] >= len(ref.Tuples) {
		t.Fatalf("dying replica forwarded %v tuples of %d; want one batch that is a strict prefix", forwarded, len(ref.Tuples))
	}
	if len(skips) != 1 || skips[0] != forwarded[0] {
		t.Fatalf("retry skips = %v, want [%d] (the tuples already delivered)", skips, forwarded[0])
	}
	if !reflect.DeepEqual(got.Tuples, ref.Tuples) {
		t.Fatalf("resumed stream differs from the single-node run:\n got %v\nwant %v", got.Tuples, ref.Tuples)
	}
	if got.Candidates != ref.Candidates || got.Matched != ref.Matched {
		t.Errorf("candidates/matched = %d/%d, want %d/%d", got.Candidates, got.Matched, ref.Candidates, ref.Matched)
	}
	if r := pool.Counters().Retries.Load(); r < 1 {
		t.Errorf("retries = %d, want >= 1", r)
	}
}

// TestGenerationPinning: an engine pinned to a generation the workers do not
// serve must fail cleanly rather than merge mismatched snapshots.
func TestGenerationPinning(t *testing.T) {
	c := cafesCorpus()
	w := newWorker(t, c)
	pool := remote.NewPool(remote.PoolConfig{
		AttemptTimeout: 150 * time.Millisecond, MaxAttempts: 2,
		HedgeAfter: -1, BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond,
	})
	eng := remote.NewEngine(pool, remote.EngineConfig{
		Corpus: "cafes", Placement: placementOver(w.URL),
		Meta: remote.Meta{Generation: 99, Documents: c.NumDocuments(), Sentences: c.NumSentences()},
	})
	_, err := runQuery(eng, cafeExtract)
	if !errors.Is(err, remote.ErrShardUnavailable) {
		t.Fatalf("want ErrShardUnavailable for a moved generation, got %v", err)
	}
	if !strings.Contains(err.Error(), "generation") {
		t.Errorf("error does not name the generation mismatch: %v", err)
	}
}

// TestHealthChecksFlipNodes: active pings mark a dead node down (counted)
// and a recovered node back up.
func TestHealthChecksFlipNodes(t *testing.T) {
	c := cafesCorpus()
	w := newWorker(t, c)
	eng := newRemoteEngine(c, remote.PoolConfig{}, w.URL)
	pool := enginePool(eng)
	node := pool.Node(w.URL)
	if !node.Up() {
		t.Fatal("fresh node should start up")
	}
	w.Close()
	pool.CheckHealth(context.Background())
	pool.CheckHealth(context.Background())
	if node.Up() {
		t.Fatal("node still up after consecutive failed pings")
	}
	if enginePoolCounters(eng).NodeUnhealthy.Load() != 1 {
		t.Errorf("node_unhealthy = %d, want 1 transition", enginePoolCounters(eng).NodeUnhealthy.Load())
	}
}

// TestFaultPolicyDeterminism: one seed, one decision sequence.
func TestFaultPolicyDeterminism(t *testing.T) {
	mk := func() *FaultPolicy {
		fp := NewFaultPolicy(1234)
		fp.Set("a", NodeFaults{DropProb: 0.3, ErrorProb: 0.3, CorruptProb: 0.2})
		return fp
	}
	a, b := mk(), mk()
	for i := 0; i < 200; i++ {
		ka, _ := a.Decide("a")
		kb, _ := b.Decide("a")
		if ka != kb {
			t.Fatalf("decision %d diverged: %v vs %v", i, ka, kb)
		}
	}
}

// TestPartialChecksum: the two checksums guarding a shard's streamed
// partial (a CRC-32C over each batch line's tuple bytes, CountersChecksum on
// the done line) are stable for equal content and sensitive to every
// merge-relevant field: a batch whose bytes changed under its stamp fails
// with ErrCorruptPartial.
func TestPartialChecksum(t *testing.T) {
	batch := func() []koko.Tuple {
		return []koko.Tuple{{
			SentenceID: 3, Document: 1, Values: []string{"Cafe Vita"},
			Scores:   map[string]float64{"x": 0.7},
			Evidence: []koko.Evidence{{Variable: "x", Condition: "c", Weight: 1, Confidence: 0.7, Contribution: 0.7}},
		}}
	}
	encode := func(ts []koko.Tuple) []byte {
		t.Helper()
		line, err := remote.AppendChunkLine(nil, &remote.ChunkLine{Tuples: koko.BatchOf(ts)})
		if err != nil {
			t.Fatal(err)
		}
		return line
	}
	base := encode(batch())
	if !bytes.Equal(encode(batch()), base) {
		t.Fatal("tuple line not deterministic")
	}
	stamp := base[bytes.LastIndex(base, []byte(`,"crc32c":`)):]
	mutations := []func([]koko.Tuple) []koko.Tuple{
		func(ts []koko.Tuple) []koko.Tuple { ts[0].SentenceID++; return ts },
		func(ts []koko.Tuple) []koko.Tuple { ts[0].Document++; return ts },
		func(ts []koko.Tuple) []koko.Tuple { ts[0].Values[0] = "Cafe Vitb"; return ts },
		func(ts []koko.Tuple) []koko.Tuple { ts[0].Scores["x"] = 0.8; return ts },
		func(ts []koko.Tuple) []koko.Tuple { ts[0].Evidence[0].Confidence = 0.8; return ts },
		func(ts []koko.Tuple) []koko.Tuple { return append(ts, ts[0]) },
	}
	for i, mutate := range mutations {
		m := encode(mutate(batch()))
		// The mutated tuples under the original stamp.
		at := bytes.LastIndex(m, []byte(`,"crc32c":`))
		forged := append(m[:at:at], stamp...)
		var l remote.ChunkLine
		if err := remote.ParseChunkLine(forged, &l); !errors.Is(err, remote.ErrCorruptPartial) {
			t.Errorf("tuple mutation %d under the original CRC: %v, want ErrCorruptPartial", i, err)
		}
	}

	counters := remote.CountersChecksum(5, 2, 1)
	if remote.CountersChecksum(5, 2, 1) != counters {
		t.Fatal("counters checksum not deterministic")
	}
	for i, c := range [][3]int{{6, 2, 1}, {5, 3, 1}, {5, 2, 0}} {
		if remote.CountersChecksum(c[0], c[1], c[2]) == counters {
			t.Errorf("counters mutation %d not reflected in checksum", i)
		}
	}
}

func enginePool(e *remote.Engine) *remote.Pool { return e.Pool() }

func enginePoolCounters(e *remote.Engine) *remote.Counters {
	return enginePool(e).Counters()
}
