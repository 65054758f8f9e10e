package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// replay is the in-process system a traced run drives: the workload's
// topology rebuilt from Services inside the benchmark process, the front one
// behind a handler that records spans.
type replay struct {
	front   service
	url     string
	closers []func() // run in order by stop
}

func (r *replay) stop() {
	for _, f := range r.closers {
		f()
	}
}

// startReplay builds the workload's topology in-process over stores.
func startReplay(spec *workloadSpec, e *env, stores map[string]string, dir string, rec *recorder) (*replay, error) {
	cfg := serviceConfig{}
	if spec.Spill {
		cfg.StoreCacheBytes = e.Sizes.SpillBytes
	}
	if spec.Durable {
		cfg.DataDir = filepath.Join(dir, "data")
		cfg.MaxDeltaDocs = e.Sizes.MaxDelta
	}
	if spec.Distributed {
		var cur atomic.Pointer[live]
		cl, err := startCluster(stores, cfg,
			func(h http.Handler) http.Handler { return shardEvalSpans(h, rec, &cur) },
			func(s service) http.Handler { return tracedHandler(s, rec, &cur) })
		if err != nil {
			return nil, err
		}
		return &replay{front: cl.front, url: cl.frontURL, closers: []func(){cl.stop}}, nil
	}
	svc := newService(cfg)
	r := &replay{front: svc, closers: []func(){svc.close}}
	if spec.Durable {
		// Closing a durable corpus while a background compaction is still
		// running crashes the program at this commit (README, "Known program
		// defects"). Compactions serialize, so an explicit one returns only
		// after any in flight has finished; no ingest follows it here.
		r.closers = []func(){func() { _ = svc.compact("wiki") }, svc.close}
	}
	for _, name := range []string{"happy", "wiki"} {
		if err := svc.load(name, stores[name]); err != nil {
			r.stop()
			return nil, err
		}
	}
	srv := httptest.NewServer(tracedHandler(svc, rec, nil))
	r.closers = append([]func(){srv.Close}, r.closers...)
	r.url = srv.URL
	return r, nil
}

// runTraced measures the per-layer metrics of one workload, all in-process:
// the layer probes, then the workload's op sequence replayed twice through
// the in-process topology — once with the recorder off, once on. The
// difference between the two passes is the tracing overhead.
func runTraced(spec *workloadSpec, e *env, seed int64, seconds float64, ps probeSizes, tracePath string) (*runResult, error) {
	in := genInputs(e.Sizes, seed)
	or, err := buildOracle(in, spec.Durable)
	if err != nil {
		return nil, err
	}
	dir, err := newScratch(e.Scratch, "trace-"+spec.Name+"-")
	if err != nil {
		return nil, err
	}
	defer removeScratch(dir)
	m := map[string]float64{}

	stores := map[string]string{}
	for _, c := range []*corpusData{in.happy, in.wiki} {
		stores[c.Name] = filepath.Join(dir, c.Name+".koko")
		if err := writeShardedStore(c, spec.Shards, stores[c.Name]); err != nil {
			return nil, err
		}
	}
	if err := runProbes(in, ps, dir, m); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	if !spec.Distributed {
		if err := probeRemote(in, stores, ps, m); err != nil {
			return nil, fmt.Errorf("remote probe: %w", err)
		}
	}

	rec := newRecorder()
	rp, err := startReplay(spec, e, stores, dir, rec)
	if err != nil {
		return nil, err
	}
	defer rp.stop()
	t := &topology{front: &child{url: rp.url}}
	cl := newClient()
	defer cl.close()
	digests, err := warmUp(cl, t, in, or)
	if err != nil {
		return nil, err
	}
	if err := probeCacheHit(rp.front, m); err != nil {
		return nil, err
	}

	// Two passes over the same op sequence, each a third of the run.
	pass := func(traced bool, firstDoc int) (*sample, int, counters, counters, error) {
		rec.on.Store(traced)
		cl.rec = rec
		s := newSample()
		c0, err := rp.front.counters()
		if err != nil {
			return nil, 0, c0, c0, err
		}
		docs := 0
		if spec.Durable {
			docs, _ = ingestPhase(t, in, or, digests, e.Sizes, seconds/3, firstDoc, rec, s)
		} else {
			readPhase(cl, t, in, digests, seconds/3, s)
		}
		rec.on.Store(false)
		c1, err := rp.front.counters()
		return s, docs, c0, c1, err
	}
	plain, docs0, _, _, err := pass(false, 0)
	if err != nil {
		return nil, err
	}
	s, docs1, c0, c1, err := pass(true, docs0)
	if err != nil {
		return nil, err
	}
	if len(plain.cycleWall) == 0 || len(s.cycleWall) == 0 {
		return nil, fmt.Errorf("traced run of %.0f s completed no whole cycle per pass", seconds)
	}

	res := &runResult{Metrics: m, Attempted: plain.attempted + s.attempted, Failed: plain.failed + s.failed}
	for _, msg := range append(plain.errs, s.errs...) {
		fmt.Fprintln(os.Stderr, "bench: failed op:", msg)
	}
	res.Spans = clampToParents(rec.spans())
	if err := checkNesting(res.Spans); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	layers, err := layerMetrics(res.Spans, m)
	if err != nil {
		return nil, err
	}

	// Per-layer times are reported as measured, not scaled to the reference
	// machine speed: they carry no bound, and spans are real intervals.
	tm := s.scaled(nil)
	queries := len(tm.all)
	m["client.tracing_overhead_pct"] = (median(s.cycleWall)/median(plain.cycleWall) - 1) * 100
	for _, c := range reportClasses {
		m["client.samples."+c] = float64(len(tm.byClass[c]))
	}
	tailP := highestPercentile(queries, 10)
	m["client.tail_percentile"] = tailP
	m["client.query_tail_ms"] = percentile(tm.all, tailP)
	m["server.stream_ttft_ms"] = median(tm.ttft)
	m["server.stream_total_ms"] = median(tm.streamTot)
	d := c1.minus(c0)
	ops := float64(max(queries+docs1, 1))
	m["blockstore.hit_ratio"] = d.hitRatio()
	m["blockstore.decodes_per_op"] = float64(d.StoreBlockDecodes) / ops
	m["blockstore.evictions_per_op"] = float64(d.StoreEvictions) / ops
	m["blockstore.cache_mb"] = float64(d.StoreCacheBytes) / 1e6
	m["koko.compactions"] = float64(d.CompactionsTotal)
	if spec.Distributed {
		remoteCounts(d, s.attempted, m)
	}

	for name, v := range m {
		if !finite(v) {
			return nil, fmt.Errorf("per-layer metric %s = %v", name, v)
		}
	}
	if tracePath != "" {
		if err := writeTrace(tracePath, spec, seed, in, res, layers); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// probeCacheHit times a repeated request served from the result cache.
func probeCacheHit(svc service, m map[string]float64) error {
	q := queryByID(classQuery[classLookup])
	req := queryRequest{Corpus: q.Corpus, Query: q.Text}
	ctx := context.Background()
	if _, _, err := svc.query(ctx, req); err != nil { // fills the cache
		return err
	}
	c0, err := svc.counters()
	if err != nil {
		return err
	}
	const n = 21
	v, err := timeMedian(n, time.Microsecond, func() error { _, _, err := svc.query(ctx, req); return err })
	if err != nil {
		return err
	}
	c1, err := svc.counters()
	if err != nil {
		return err
	}
	if hits := c1.CacheHits - c0.CacheHits; hits != n {
		return fmt.Errorf("cache probe: %d of %d repeats hit the result cache", hits, n)
	}
	m["server.cache_hit_us"] = v
	return nil
}

// clampToParents cuts a span recorded on the far side of an HTTP hop back to
// its caller's span where it outlasts it. The two sides end in an order the
// scheduler picks: a handler notes its end only when its goroutine next
// runs, which on two busy cores can be many milliseconds after its caller
// read the last byte and moved on. Such a span must still have started
// inside its parent — checkNesting rejects it otherwise — and everything
// below it is cut along with it. Spans recorded on one side of a hop are
// left alone and must nest as recorded.
func clampToParents(spans []span) []span {
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID }) // parents first
	end := make(map[int64]int64, len(spans))
	cut := map[int64]bool{} // spans cut, whose descendants may need cutting too
	for i := range spans {
		s := &spans[i]
		pe, ok := end[s.Parent]
		if ok && s.End > pe && s.Start <= pe && (s.Hop || cut[s.Parent]) {
			s.End = pe
			cut[s.ID] = true
		}
		end[s.ID] = s.End
	}
	return spans
}

// layerMetrics derives the span-based per-layer metrics into m and returns
// the mean self time in ms by span name (for the trace file). It fails when
// the layers' shares of the ops' wall time do not add up to the ops'
// durations within a tenth, per class.
func layerMetrics(spans []span, m map[string]float64) (map[string]float64, error) {
	self := selfTimes(spans)
	classOf := map[int64]string{} // request id -> class
	for _, s := range spans {
		if s.Name == "op" {
			classOf[s.Req] = s.Class
		}
	}
	durs := map[string]map[string][]float64{} // span name -> class -> ms
	add := func(name, class string, ms float64) {
		if durs[name] == nil {
			durs[name] = map[string][]float64{}
		}
		durs[name][class] = append(durs[name][class], ms)
	}
	selfByName, nByName := map[string]float64{}, map[string]float64{}
	opNs := map[int64]int64{} // request id -> op duration
	var encodeNs, encodeTuples, verifyNs float64
	for _, s := range spans {
		add(s.Name, classOf[s.Req], float64(s.dur())/1e6)
		selfByName[s.Name] += float64(self[s.ID]) / 1e6
		nByName[s.Name]++
		switch s.Name {
		case "op":
			opNs[s.Req] = s.dur()
		case "server.encode":
			if s.Count >= 100 {
				encodeNs += float64(s.dur())
				encodeTuples += float64(s.Count)
			}
		case "client.verify":
			verifyNs += float64(s.dur())
		}
	}
	// Every op's wall time, split among the layers its spans name, must add
	// up to the op's duration: a span recorded under the wrong parent, or
	// outside its op, shows here.
	shareSum, opSum := map[string]int64{}, map[string]int64{}
	for req, shares := range wallByLayer(spans) {
		for _, ns := range shares {
			shareSum[classOf[req]] += ns
		}
		opSum[classOf[req]] += opNs[req]
	}
	for class, total := range opSum {
		if diff := float64(shareSum[class])/float64(total) - 1; diff > 0.1 || diff < -0.1 {
			return nil, fmt.Errorf("trace: class %s layer shares sum to %.1f ms, its ops took %.1f ms", class, float64(shareSum[class])/1e6, float64(total)/1e6)
		}
	}
	for _, c := range reportClasses {
		inproc := median(durs["server.query"][c])
		m["server.query_inproc_ms."+c] = inproc
		m["server.http_overhead_ms."+c] = median(durs["client.request"][c]) - inproc
	}
	if encodeTuples == 0 {
		return nil, fmt.Errorf("trace: no buffered answer of 100 tuples or more was encoded")
	}
	m["server.encode_ms_per_10k_tuples"] = encodeNs / 1e6 / encodeTuples * 1e4
	m["client.decode_ms_per_op"] = verifyNs / 1e6 / float64(max(len(opNs), 1))
	mean := map[string]float64{}
	for name, total := range selfByName {
		mean[name] = total / nByName[name]
	}
	if ds := durs["remote.shard_eval"][classExtract]; len(ds) > 0 {
		// Worker-side view of one shard evaluation; without a cluster in
		// the replay the remote probe measured it instead.
		m["remote.shard_eval_ms"] = median(ds)
	}
	return mean, nil
}

// writeTrace writes the spans and their summary to path.
func writeTrace(path string, spec *workloadSpec, seed int64, in *inputs, res *runResult, layers map[string]float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{
		"workload":          spec.Name,
		"seed":              seed,
		"op_sequence_hash":  fmt.Sprintf("%016x", opSequenceHash(in.cycle)),
		"mean_self_ms":      layers,
		"per_layer_metrics": res.Metrics,
		"spans":             res.Spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
