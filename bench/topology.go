package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"time"
)

// topology is the running system of one set-up.
type topology struct {
	dir        string
	front      *child   // queries and ingests go here
	all        []*child // every kokod of the run
	dataDir    string   // durable state, "" without
	storeBytes int64    // bytes of the block stores written
}

func (t *topology) tearDown() {
	for _, c := range t.all {
		c.kill()
	}
	removeScratch(t.dir)
}

// baseFlags are on every child: pool and workers sized to the two cores,
// and no timer left running that could fire inside a timed phase.
var baseFlags = []string{"-pool", "2", "-workers", "1", "-compact-interval", "0"}

// setUp generates the inputs, builds and writes the stores, starts the
// children and waits until they answer. It returns with everything running.
func setUp(spec *workloadSpec, e *env, seed int64, hc *http.Client) (*topology, *inputs, error) {
	in := genInputs(e.Sizes, seed)
	dir, err := newScratch(e.Scratch, spec.Name+"-")
	if err != nil {
		return nil, nil, err
	}
	t := &topology{dir: dir}
	fail := func(err error) (*topology, *inputs, error) {
		t.tearDown()
		return nil, nil, err
	}
	var loads []string
	for _, c := range []*corpusData{in.happy, in.wiki} {
		path := filepath.Join(dir, c.Name+".koko")
		if err := writeShardedStore(c, spec.Shards, path); err != nil {
			return fail(fmt.Errorf("write %s store: %w", c.Name, err))
		}
		loads = append(loads, "-load", c.Name+"="+path)
	}
	if t.storeBytes, err = dirBytes(dir); err != nil {
		return fail(err)
	}
	start := func(name string, extra ...string) (*child, error) {
		args := append(append([]string{}, baseFlags...), extra...)
		c, err := startKokod(name, e.Kokod, filepath.Join(dir, name+".log"), args)
		if err == nil {
			t.all = append(t.all, c)
		}
		return c, err
	}
	switch {
	case spec.Distributed:
		var addrs []string
		for i := 0; i < 2; i++ {
			w, err := start("worker"+strconv.Itoa(i), loads...)
			if err != nil {
				return fail(err)
			}
			addrs = append(addrs, "-worker", w.url)
		}
		for _, w := range t.all {
			if err := w.waitHealthy(hc, 30*time.Second); err != nil {
				return fail(err)
			}
		}
		coord := append([]string{"-role", "coordinator", "-replicas", "2", "-hedge-after", "-1s", "-health-interval", "0"}, addrs...)
		if t.front, err = start("coordinator", coord...); err != nil {
			return fail(err)
		}
	default:
		extra := loads
		if spec.Spill {
			extra = append(extra, "-store-cache-bytes", strconv.FormatInt(e.Sizes.SpillBytes, 10))
		}
		if spec.Durable {
			t.dataDir = filepath.Join(dir, "data")
			extra = append(extra, "-data-dir", t.dataDir, "-wal-sync", "none", "-wal-max-bytes", "0",
				"-max-delta-docs", strconv.Itoa(e.Sizes.MaxDelta))
		}
		if t.front, err = start("kokod", extra...); err != nil {
			return fail(err)
		}
	}
	if err := t.front.waitHealthy(hc, 30*time.Second); err != nil {
		return fail(err)
	}
	return t, in, nil
}

// cpuSecondsOf sums the CPU time of children.
func cpuSecondsOf(children []*child) (float64, error) {
	total := 0.0
	for _, c := range children {
		v, err := c.cpuSeconds()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", c.name, err)
		}
		total += v
	}
	return total, nil
}

// countersOf reads /v1/metrics of every child and returns the front child's
// counters with the block-store ones summed over all children (on a
// coordinator the stores live in the workers).
func countersOf(cl *client, t *topology) (counters, error) {
	front, err := cl.counters(t.front.url)
	if err != nil {
		return front, err
	}
	for _, c := range t.all {
		if c == t.front {
			continue
		}
		m, err := cl.counters(c.url)
		if err != nil {
			return front, err
		}
		front.StoreCacheBytes += m.StoreCacheBytes
		front.StoreCacheHits += m.StoreCacheHits
		front.StoreCacheMisses += m.StoreCacheMisses
		front.StoreBlockDecodes += m.StoreBlockDecodes
		front.StoreEvictions += m.StoreEvictions
		front.ShardEvalsServed += m.ShardEvalsServed
	}
	return front, nil
}

// minus is the growth of every counter from c0 to c; the cache's resident
// bytes are a level, not a count, and are kept as they are in c.
func (c counters) minus(c0 counters) counters {
	return counters{
		QueriesTotal:      c.QueriesTotal - c0.QueriesTotal,
		QueryErrors:       c.QueryErrors - c0.QueryErrors,
		CacheHits:         c.CacheHits - c0.CacheHits,
		IngestsTotal:      c.IngestsTotal - c0.IngestsTotal,
		CompactionsTotal:  c.CompactionsTotal - c0.CompactionsTotal,
		CompactionErrors:  c.CompactionErrors - c0.CompactionErrors,
		RemoteAttempts:    c.RemoteAttempts - c0.RemoteAttempts,
		RemoteRetries:     c.RemoteRetries - c0.RemoteRetries,
		RemoteHedgesFired: c.RemoteHedgesFired - c0.RemoteHedgesFired,
		ShardEvalsServed:  c.ShardEvalsServed - c0.ShardEvalsServed,
		StoreCacheBytes:   c.StoreCacheBytes,
		StoreCacheHits:    c.StoreCacheHits - c0.StoreCacheHits,
		StoreCacheMisses:  c.StoreCacheMisses - c0.StoreCacheMisses,
		StoreBlockDecodes: c.StoreBlockDecodes - c0.StoreBlockDecodes,
		StoreEvictions:    c.StoreEvictions - c0.StoreEvictions,
	}
}

// hitRatio is the block cache's hit ratio (1 when it was never consulted).
func (c counters) hitRatio() float64 {
	if n := c.StoreCacheHits + c.StoreCacheMisses; n > 0 {
		return float64(c.StoreCacheHits) / float64(n)
	}
	return 1
}
