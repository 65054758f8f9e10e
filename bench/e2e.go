package main

import (
	"fmt"
	"net/http"
	"os"
	"time"
)

// runResult is what one run, end to end or traced, reports.
type runResult struct {
	Attempted int
	Failed    int
	Metrics   map[string]float64
	Notes     []string // counts behind the metrics, printed for the reader
	Spans     []span   // traced runs only
}

// phase is everything read around and inside one timed phase.
type phase struct {
	s          *sample
	d          counters // growth of kokod's counters over the phase
	cpuSeconds float64  // CPU the children used
	wall       float64  // seconds
	docs       int      // ingests acknowledged (ingest_while_query)
	writerBusy time.Duration
	rssMB      float64 // Σ VmHWM of the children right after the phase
}

// runE2E executes one workload end to end against real kokod children.
func runE2E(spec *workloadSpec, e *env, seed int64, seconds float64) (*runResult, error) {
	hc := &http.Client{Timeout: 5 * time.Second}
	or, err := buildOracle(genInputs(e.Sizes, seed), spec.Durable)
	if err != nil {
		return nil, err
	}

	// Set up several times; the last set-up is the one measured. Each
	// set-up's time is scaled by kernel readings taken just around it.
	cl := newClient()
	defer cl.close()
	var (
		t       *topology
		in      *inputs
		digests map[string]digest
		setups  []float64
	)
	for rep := 0; rep < e.SetupReps; rep++ {
		if t != nil {
			t.tearDown()
			cl.close()
		}
		before := calibrateN(3)
		t0 := time.Now()
		if t, in, err = setUp(spec, e, seed, hc); err != nil {
			return nil, err
		}
		if digests, err = warmUp(cl, t, in, or); err != nil {
			t.tearDown()
			return nil, err
		}
		took := time.Since(t0).Seconds()
		setups = append(setups, took*calRefMs/((before+calibrateN(3))/2))
	}
	defer func() { t.tearDown() }() // t is replaced when the ingest workload restarts its child

	p, err := measurePhase(spec, e, cl, t, in, or, digests, seconds)
	if err != nil {
		return nil, err
	}
	res := &runResult{Metrics: map[string]float64{"setup_s": median(setups)}}
	p.metrics(spec, in, res)
	if err := p.checkDiscrimination(spec, e); err != nil {
		return nil, err
	}

	stored, inputBytes := t.storeBytes, in.happy.TextBytes+in.wiki.TextBytes
	if spec.Durable {
		if stored, err = settleAndRecover(cl, hc, t, in, or, p.docs, p.s); err != nil {
			return nil, err
		}
		for i := 0; i < p.docs; i++ {
			inputBytes += int64(len(in.pool.DocText(i))) + 1
		}
	}
	res.Metrics["store_bytes_per_input_byte"] = float64(stored) / float64(inputBytes)
	res.Attempted, res.Failed = p.s.attempted, p.s.failed
	for _, msg := range p.s.errs {
		fmt.Fprintln(os.Stderr, "bench: failed op:", msg)
	}
	for name, v := range res.Metrics {
		if !finite(v) || v <= 0 {
			return nil, fmt.Errorf("metric %s = %v: the run produced no usable value", name, v)
		}
	}
	return res, nil
}

// measurePhase runs the workload's timed phase and reads the children's
// counters, CPU time and memory around it.
func measurePhase(spec *workloadSpec, e *env, cl *client, t *topology, in *inputs, or *oracle, digests map[string]digest, seconds float64) (*phase, error) {
	p := &phase{s: newSample()}
	c0, err := countersOf(cl, t)
	if err != nil {
		return nil, err
	}
	cpu0, err := cpuSecondsOf(t.all)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if spec.Durable {
		p.docs, p.writerBusy = ingestPhase(t, in, or, digests, e.Sizes, seconds, 0, nil, p.s)
	} else {
		readPhase(cl, t, in, digests, seconds, p.s)
	}
	p.wall = time.Since(t0).Seconds()
	cpu1, err := cpuSecondsOf(t.all)
	if err != nil {
		return nil, err
	}
	p.cpuSeconds = cpu1 - cpu0
	c1, err := countersOf(cl, t)
	if err != nil {
		return nil, err
	}
	p.d = c1.minus(c0)
	// Memory high-water marks are read now: the recovery check would raise
	// them, and the ingest workload's child is killed before the run ends.
	for _, c := range t.all {
		v, err := c.peakRSSMB()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		p.rssMB += v
	}
	if len(p.s.obs) == 0 || len(p.s.cycleWall) == 0 {
		return nil, fmt.Errorf("the timed phase of %.0f s completed no whole cycle", seconds)
	}
	return p, nil
}

// metrics derives the phase's end-to-end metrics into res. Every time is
// scaled to the reference machine speed (calib.go): query times by the kernel
// readings around their own cycle, whole-phase quantities by the phase's
// median reading.
func (p *phase) metrics(spec *workloadSpec, in *inputs, res *runResult) {
	s, m := p.s, res.Metrics
	tm, raw := s.scaled(speedFactors(s.cal)), s.scaled(nil)
	phaseSpeed := calRefMs / median(s.cal)
	queries := len(tm.all)
	m["rss_peak_mb"] = p.rssMB
	m["cpu_ms_per_op"] = p.cpuSeconds * 1000 / float64(queries+p.docs) * phaseSpeed
	m["ops_s"] = float64(len(in.cycle)) / median(tm.cycleWall)
	if spec.Durable {
		// The reader stops mid-cycle when the writer is done, and the phase
		// has a fixed length: count the queries it got through.
		m["ops_s"] = float64(queries) / (p.wall * phaseSpeed)
		// The write side is reported, not bounded: on this sandbox runs of
		// identical code differ by 15-25 % in ingest latency even after
		// scaling (README, "Why ingest latency is not an end-to-end metric").
		res.Notes = append(res.Notes, fmt.Sprintf(
			"writer: %d documents acknowledged, p50 %.3f ms, %.0f documents/s inside bursts (as measured)",
			p.docs, median(s.ingest), float64(p.docs)/p.writerBusy.Seconds()))
	}
	for _, c := range reportClasses {
		m[c+"_p50_ms"] = median(tm.byClass[c])
	}
	m["query_p95_ms"] = percentile(tm.all, 95)

	tail := highestPercentile(queries, 10)
	res.Notes = append(res.Notes,
		fmt.Sprintf("machine speed: calibration kernel median %.2f ms against the reference %.2f ms; as measured: lookup p50 %.2f ms, extract p50 %.2f ms, satisfying p50 %.2f ms, p95 %.2f ms",
			median(s.cal), calRefMs, median(raw.byClass[classLookup]), median(raw.byClass[classExtract]), median(raw.byClass[classSatisfying]),
			percentile(raw.all, 95)),
		fmt.Sprintf("timed phase %.2f s: %d queries (%d cycles), %d ingests; highest percentile with >=10 samples beyond: p%g = %.2f ms",
			p.wall, queries, len(s.cycleWall), p.docs, tail, percentile(tm.all, tail)),
		fmt.Sprintf("block cache in the timed phase: %d decodes, %d evictions, hit ratio %.4f; remote: %d attempts, %d retries, %d hedges; compactions: %d",
			p.d.StoreBlockDecodes, p.d.StoreEvictions, p.d.hitRatio(),
			p.d.RemoteAttempts, p.d.RemoteRetries, p.d.RemoteHedgesFired, p.d.CompactionsTotal))
}

// checkDiscrimination asserts that the workload exercised the path it exists
// for; numbers from a run that did not would compare the wrong thing.
func (p *phase) checkDiscrimination(spec *workloadSpec, e *env) error {
	switch {
	case spec.Spill:
		if p.d.StoreEvictions <= 0 || p.d.hitRatio() >= 0.9 {
			return fmt.Errorf("assert %s: %d evictions, hit ratio %.3f: the block cache did not spill", spec.Name, p.d.StoreEvictions, p.d.hitRatio())
		}
	case spec.Distributed:
		if want := int64(spec.Shards * p.s.attempted); p.d.RemoteRetries != 0 || p.d.RemoteHedgesFired != 0 || p.d.RemoteAttempts != want {
			return fmt.Errorf("assert %s: %d remote attempts (want %d), %d retries, %d hedges",
				spec.Name, p.d.RemoteAttempts, want, p.d.RemoteRetries, p.d.RemoteHedgesFired)
		}
	case spec.Durable:
		if p.d.CompactionsTotal < e.MinCompactions || p.d.CompactionErrors != 0 {
			return fmt.Errorf("assert %s: %d compactions during the timed phase (want >= %d), %d compaction errors",
				spec.Name, p.d.CompactionsTotal, e.MinCompactions, p.d.CompactionErrors)
		}
	default:
		if p.d.StoreBlockDecodes != 0 {
			return fmt.Errorf("assert %s: %d blocks decoded in the timed phase; the working set does not fit the cache", spec.Name, p.d.StoreBlockDecodes)
		}
	}
	return nil
}

// settleAndRecover ends the ingest workload: fold the remaining delta into
// the base, measure the durable directory, kill -9 the child, restart it on
// the same directory and check that it serves exactly the acknowledged
// state. SIGKILL leaves the page cache intact, so with -wal-sync none this
// checks recovery from what was written, not from what was flushed.
func settleAndRecover(cl *client, hc *http.Client, t *topology, in *inputs, or *oracle, docs int, s *sample) (int64, error) {
	status, _, err := cl.post(t.front.url+"/v1/corpora/wiki/compact", nil, live{})
	if err != nil || status != http.StatusOK {
		return 0, fmt.Errorf("final compact: status %d, %v: %.200s", status, err, cl.buf.Bytes())
	}
	stored, err := dirBytes(t.dataDir)
	if err != nil {
		return 0, err
	}
	old := t.front
	old.kill()
	cl.close()
	fresh, err := old.restart()
	if err != nil {
		return 0, err
	}
	t.all, t.front = []*child{fresh}, fresh
	if err := fresh.waitHealthy(hc, 30*time.Second); err != nil {
		return 0, fmt.Errorf("restart after kill -9: %w", err)
	}
	var list struct {
		Corpora []struct {
			Name      string `json:"name"`
			Documents int    `json:"documents"`
		} `json:"corpora"`
	}
	if err := cl.getJSON(fresh.url+"/v1/corpora", &list); err != nil {
		return 0, err
	}
	want := map[string]int{"happy": in.happy.NumDocs(), "wiki": in.wiki.NumDocs() + docs}
	for _, c := range list.Corpora {
		if n, ok := want[c.Name]; ok && n == c.Documents {
			delete(want, c.Name)
		}
	}
	if len(want) != 0 {
		return 0, fmt.Errorf("after kill -9 and restart the corpora are %+v, missing or wrong: %v", list.Corpora, want)
	}
	for _, o := range in.cycle {
		if o.Class == classStream {
			continue
		}
		s.attempt()
		a, err := cl.runQuery(fresh.url, o, true)
		if err == nil {
			wantTuples := or.want[o.Q.ID]
			if o.Q.Corpus == "wiki" {
				wantTuples = or.final[o.Q.ID][:or.cum[o.Q.ID][docs]]
			}
			if d := sameTuples(a.Tuples, wantTuples); d != "" {
				err = fmt.Errorf("after recovery %s: %s", o.Q.ID, d)
			}
		}
		if err != nil {
			s.fail(err)
		}
	}
	return stored, nil
}
