package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// The probes time one layer at a time through its public functions, on the
// run's own corpora. They do not depend on the workload: every traced run
// reports them, next to what the workload's replay adds. Each probe repeats
// its call a few times and reports the median, in-process and single-caller.

// timeMedian runs f n times and returns the median duration in the unit of
// scale (time.Millisecond for ms, time.Microsecond for us).
func timeMedian(n int, scale time.Duration, f func() error) (float64, error) {
	ds := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0))/float64(scale))
	}
	return median(ds), nil
}

// classQuery is the query a per-class probe evaluates: the class's dearest.
var classQuery = map[string]string{
	classLookup:     "happy-ate",
	classExtract:    "happy-dobj",
	classSatisfying: "happy-delicious",
}

// probeSizes bounds the work of the probes that add documents one by one.
type probeSizes struct {
	Reps      int // repetitions of the whole-corpus probes
	DeltaDocs int // size of the live delta the delta, seal and snapshot probes work on
	WalDocs   int // records appended under -wal-sync none
	SyncDocs  int // records appended under -wal-sync always
}

var fullProbes = probeSizes{Reps: 3, DeltaDocs: 128, WalDocs: 256, SyncDocs: 24}

// probe carries what every layer probe needs: the run's inputs, the probe
// sizes, scratch space, and the metric map the results go into.
type probe struct {
	in  *inputs
	ps  probeSizes
	dir string
	m   map[string]float64
}

// timed stores the median duration of n calls of f under name, in scale.
func (p *probe) timed(name string, n int, scale time.Duration, f func() error) error {
	v, err := timeMedian(n, scale, f)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	p.m[name] = v
	return nil
}

// perDoc calls f for pool documents 0..n-1 and returns the median time of a
// call in microseconds.
func (p *probe) perDoc(n int, f func(i int) error) (float64, error) {
	us := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(i); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return median(us), nil
}

// runProbes measures every workload-independent per-layer metric into m.
// dir is scratch space.
func runProbes(in *inputs, ps probeSizes, dir string, m map[string]float64) error {
	p := &probe{in: in, ps: ps, dir: dir, m: m}
	for _, f := range []func() error{p.langAndNLP, p.engine, p.index, p.blockstore, p.wal, p.sharded, p.mutable, p.durable} {
		if err := f(); err != nil {
			return err
		}
	}
	return nil
}

// langAndNLP: parsing a query, and parsing the text of an ingested document.
func (p *probe) langAndNLP() error {
	err := p.timed("lang.parse_us", 20*p.ps.Reps, time.Microsecond, func() error {
		for i := range queries {
			if err := parseQuery(queries[i].Text); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.m["lang.parse_us"] /= float64(len(queries))

	texts := make([]string, min(p.ps.WalDocs, p.in.pool.NumDocs()))
	for i := range texts {
		texts[i] = p.in.pool.DocText(i)
	}
	sentences := 0
	err = p.timed("nlp.annotate_us_per_sentence", p.ps.Reps, time.Microsecond, func() error {
		sentences = 0
		for _, t := range texts {
			sentences += annotate(t)
		}
		return nil
	})
	p.m["nlp.annotate_us_per_sentence"] /= float64(max(sentences, 1))
	return err
}

// engine: one query per class on a heap index with one worker — DPLI alone,
// the whole evaluation, its allocations, and its wasted-work ratio.
func (p *probe) engine() error {
	heap := newHeapEngine(p.in.happy)
	for _, c := range reportClasses {
		q, err := heap.prepare(queryByID(classQuery[c]).Text)
		if err != nil {
			return err
		}
		err = p.timed("engine.candidates_ms."+c, 2*p.ps.Reps+1, time.Millisecond, func() error { _, err := q.candidates(); return err })
		if err != nil {
			return err
		}
		var cand, matched int
		err = p.timed("engine.run_ms."+c, 2*p.ps.Reps+1, time.Millisecond, func() error {
			var err error
			_, cand, matched, err = q.run()
			return err
		})
		if err != nil {
			return err
		}
		if matched == 0 {
			return fmt.Errorf("probe %s: no sentence matched", classQuery[c])
		}
		p.m["engine.candidates_per_match."+c] = float64(cand) / float64(matched)
		// The process is otherwise idle here, so the difference of the
		// runtime's counters around one evaluation is the evaluation's own,
		// up to the runtime's background allocations.
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		_, _, _, err = q.run()
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		p.m["engine.allocs_per_op."+c] = float64(m1.Mallocs - m0.Mallocs)
		p.m["engine.bytes_per_op."+c] = float64(m1.TotalAlloc - m0.TotalAlloc)
	}
	return nil
}

// index: building the happy corpus's index, alone and as part of an engine;
// adding to and sealing a live delta.
func (p *probe) index() error {
	if err := p.timed("index.build_ms", p.ps.Reps, time.Millisecond, func() error { indexBuild(p.in.happy); return nil }); err != nil {
		return err
	}
	if err := p.timed("koko.new_engine_ms", p.ps.Reps, time.Millisecond, func() error { newEngine(p.in.happy); return nil }); err != nil {
		return err
	}
	dl := newDelta()
	us, err := p.perDoc(p.deltaDocs(), func(i int) error { dl.add(p.in.pool, i); return nil })
	if err != nil {
		return err
	}
	p.m["index.delta_add_us"] = us
	return p.timed("index.seal_us", 5*p.ps.Reps, time.Microsecond, func() error { dl.seal(); return nil })
}

func (p *probe) deltaDocs() int { return min(p.ps.DeltaDocs, p.in.pool.NumDocs()) }

// blockstore: write, open, and decode with a cache too small to keep
// anything, so that every block walked is decoded.
func (p *probe) blockstore() error {
	write := blockWriter(p.in.happy)
	path := filepath.Join(p.dir, "probe.block")
	if err := p.timed("blockstore.write_ms", p.ps.Reps, time.Millisecond, func() error { return write(path) }); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	p.m["blockstore.file_bytes_per_input_byte"] = float64(fi.Size()) / float64(p.in.happy.TextBytes)
	err = p.timed("blockstore.open_ms", 2*p.ps.Reps+1, time.Millisecond, func() error {
		r, err := blockOpen(path)
		if err != nil {
			return err
		}
		return r.close()
	})
	if err != nil {
		return err
	}
	rd, err := blockOpen(path)
	if err != nil {
		return err
	}
	defer rd.close()
	setBlockCacheBudget(1)
	defer setBlockCacheBudget(defaultBlockCacheBytes)
	words := distinctWords(p.in.happy, 200)
	postings := 0
	err = p.timed("blockstore.decode_ns_per_posting", p.ps.Reps, time.Microsecond, func() error { postings = rd.walk(words); return nil })
	p.m["blockstore.decode_ns_per_posting"] *= 1000 / float64(max(postings, 1))
	return err
}

// wal: append under both flush policies, replay, and size on disk.
func (p *probe) wal() error {
	path := filepath.Join(p.dir, "probe.wal")
	n := min(p.ps.WalDocs, p.in.pool.NumDocs())
	w, _, err := walOpen(path, "none")
	if err != nil {
		return err
	}
	text := int64(0)
	us, err := p.perDoc(n, func(i int) error {
		text += int64(len(p.in.pool.DocText(i))) + 1
		return w.append(p.in.pool, i)
	})
	if err != nil {
		return err
	}
	p.m["wal.append_us.none"] = us
	p.m["wal.bytes_per_input_byte"] = float64(w.size()) / float64(text)
	if err := w.close(); err != nil {
		return err
	}
	replayed := 0
	err = p.timed("wal.replay_ms", p.ps.Reps, time.Millisecond, func() error {
		w, n, err := walOpen(path, "none")
		if err != nil {
			return err
		}
		replayed = n
		return w.close()
	})
	if err != nil {
		return err
	}
	if replayed != n {
		return fmt.Errorf("wal probe: replayed %d of %d records", replayed, n)
	}
	ws, _, err := walOpen(filepath.Join(p.dir, "probe-sync.wal"), "always")
	if err != nil {
		return err
	}
	us, err = p.perDoc(min(p.ps.SyncDocs, p.in.pool.NumDocs()), func(i int) error { return ws.append(p.in.pool, i) })
	if err != nil {
		return err
	}
	p.m["wal.append_us.always"] = us
	return ws.close()
}

// sharded: shard fan-out (gain against merge cost), on the extract class.
func (p *probe) sharded() error {
	ctx := context.Background()
	text := queryByID(classQuery[classExtract]).Text
	for _, k := range []int{1, 2, 4} {
		sh := newSharded(p.in.happy, k)
		err := p.timed(fmt.Sprintf("koko.sharded_run_ms.k%d", k), 2*p.ps.Reps+1, time.Millisecond, func() error { _, err := sh.run(ctx, text); return err })
		if err != nil {
			return err
		}
	}
	return nil
}

// wikiClassQuery is the wiki query of each class: the reader's queries over
// the corpus being ingested into.
var wikiClassQuery = map[string]string{
	classLookup:     "wiki-called",
	classExtract:    "wiki-born",
	classSatisfying: "wiki-chocolate",
}

// mutable: memory-only ingestion of parsed documents, and queries over the
// base plus the live delta they leave.
func (p *probe) mutable() error {
	ctx := context.Background()
	mem := newMutable(p.in.wiki)
	us, err := p.perDoc(p.deltaDocs(), func(i int) error { return mem.add(p.in.pool, i) })
	if err != nil {
		return err
	}
	p.m["koko.add_document_us"] = us
	snap := mem.snapshot()
	for _, c := range reportClasses {
		text := queryByID(wikiClassQuery[c]).Text
		err := p.timed("koko.snapshot_run_ms."+c, 2*p.ps.Reps+1, time.Millisecond, func() error { _, err := snap.run(ctx, text); return err })
		if err != nil {
			return err
		}
	}
	return nil
}

// durable: ingestion through the WAL (unsynced), compaction, and reopening
// the directory after the handle was dropped as a crash would drop it.
func (p *probe) durable() error {
	dir := filepath.Join(p.dir, "probe-durable")
	dur, err := openDurable(p.in.wiki, dir)
	if err != nil {
		return err
	}
	n := p.deltaDocs()
	us, err := p.perDoc(n, func(i int) error { return dur.put(p.in.pool, i) })
	if err != nil {
		return err
	}
	p.m["koko.put_durable_us"] = us
	t0 := time.Now()
	if err := dur.compact(); err != nil {
		return err
	}
	p.m["koko.compact_ms"] = msOf(time.Since(t0))
	rewritten, err := newestGenerationBytes(dir)
	if err != nil {
		return err
	}
	p.m["koko.compact_bytes_rewritten"] = float64(rewritten)
	// A few more documents so that the reopen has a log to replay.
	for i := n; i < min(n+n/4+1, p.in.pool.NumDocs()); i++ {
		if err := dur.put(p.in.pool, i); err != nil {
			return err
		}
	}
	want := dur.numDocs()
	if err := dur.close(); err != nil {
		return err
	}
	t0 = time.Now()
	re, err := openDurable(nil, dir)
	if err != nil {
		return err
	}
	p.m["koko.recover_s"] = time.Since(t0).Seconds()
	if got := re.numDocs(); got != want {
		return fmt.Errorf("durable probe: reopened corpus has %d documents, want %d", got, want)
	}
	return re.close()
}

// defaultBlockCacheBytes is kokod's default -store-cache-bytes.
const defaultBlockCacheBytes = 256 << 20

// newestGenerationBytes sums the shard files of the highest generation in a
// durable corpus directory: what the last compaction wrote.
func newestGenerationBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	best, total := -1, int64(0)
	for _, e := range entries {
		var gen, shard int
		if n, _ := fmt.Sscanf(e.Name(), "gen%d.shard%d", &gen, &shard); n != 2 {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		if gen > best {
			best, total = gen, 0
		}
		if gen == best {
			total += fi.Size()
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("no shard files in %s", dir)
	}
	return total, nil
}

// probeRemote measures the remote hop through a small in-process cluster
// over the run's stores: one direct shard evaluation on a worker, and one
// cycle through a coordinator for the attempt, retry and hedge counts.
func probeRemote(in *inputs, stores map[string]string, ps probeSizes, m map[string]float64) error {
	cl, err := startCluster(stores, serviceConfig{}, nil, nil)
	if err != nil {
		return err
	}
	defer cl.stop()
	body, err := shardEvalBody("happy", 0, queryByID(classQuery[classExtract]).Text)
	if err != nil {
		return err
	}
	hc := &http.Client{Timeout: 30 * time.Second}
	defer hc.CloseIdleConnections()
	v, err := timeMedian(2*ps.Reps+1, time.Millisecond, func() error {
		resp, err := hc.Post(cl.workers[0].URL+shardEvalPath, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var sink bytes.Buffer
		if _, err := sink.ReadFrom(resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("shard-eval: HTTP %d: %.200s", resp.StatusCode, sink.Bytes())
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["remote.shard_eval_ms"] = v
	c0, err := cl.front.counters()
	if err != nil {
		return err
	}
	c := newClient()
	defer c.close()
	for _, o := range in.cycle {
		if _, err := c.runQuery(cl.frontURL, o, false); err != nil {
			return err
		}
	}
	c1, err := cl.front.counters()
	if err != nil {
		return err
	}
	remoteCounts(c1.minus(c0), len(in.cycle), m)
	return nil
}

// remoteCounts derives the remote-hop counts from the growth d of a
// coordinator's counters over n queries.
func remoteCounts(d counters, n int, m map[string]float64) {
	m["remote.attempts_per_query"] = float64(d.RemoteAttempts) / float64(max(n, 1))
	m["remote.retries"] = float64(d.RemoteRetries)
	m["remote.hedges"] = float64(d.RemoteHedgesFired)
}

// cluster is an in-process coordinator over two in-process workers, each
// behind its own loopback listener.
type cluster struct {
	front    service
	frontURL string
	workers  []*httptest.Server
	servers  []*httptest.Server
	services []service
}

func (c *cluster) stop() {
	for _, s := range c.servers {
		s.Close()
	}
	for _, s := range c.services {
		s.close()
	}
}

// startCluster loads stores into two worker services and connects a
// coordinator service to them. wrapWorker and frontHandler, when not nil,
// replace the plain handlers (the traced replay passes its span recorders).
func startCluster(stores map[string]string, cfg serviceConfig, wrapWorker func(http.Handler) http.Handler, frontHandler func(service) http.Handler) (*cluster, error) {
	c := &cluster{}
	var urls []string
	for i := 0; i < 2; i++ {
		w := newService(cfg)
		c.services = append(c.services, w)
		for name, path := range stores {
			if err := w.load(name, path); err != nil {
				c.stop()
				return nil, err
			}
		}
		h := w.handler()
		if wrapWorker != nil {
			h = wrapWorker(h)
		}
		srv := httptest.NewServer(h)
		c.servers = append(c.servers, srv)
		c.workers = append(c.workers, srv)
		urls = append(urls, srv.URL)
	}
	c.front = newService(cfg)
	c.services = append(c.services, c.front)
	if err := c.front.connect(context.Background(), urls); err != nil {
		c.stop()
		return nil, err
	}
	h := c.front.handler()
	if frontHandler != nil {
		h = frontHandler(c.front)
	}
	srv := httptest.NewServer(h)
	c.servers = append(c.servers, srv)
	c.frontURL = srv.URL
	return c, nil
}
