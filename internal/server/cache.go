package server

import (
	"container/list"
	"sync"
)

// resultCache is an LRU cache of drained answers — a query's summary and
// the batches it delivered, a forwarded batch kept as its worker's bytes —
// keyed on (corpus, generation, explain, canonical query) by the Service.
// Values are shared between requests and MUST be treated as immutable by
// readers.
//
// The cache is bounded two ways: by entry count and by the total number of
// cached tuples (the dominant memory cost of a result). When either budget
// is exceeded, least-recently-used entries are evicted until both hold — so
// one query returning a huge tuple table pushes out many small results, and
// a result larger than the whole tuple budget is simply not retained
// (admission by size, the ROADMAP's memory-bounds item).
//
// Entries never expire by time: keys carry the corpus generation, which
// every ingest, delete, compaction and reload bumps, so an entry is exact
// for as long as it is reachable.
type resultCache struct {
	mu         sync.Mutex
	maxEntries int
	maxTuples  int
	tuples     int        // current total tuple count across entries
	ll         *list.List // front = most recently used
	m          map[cacheKey]*list.Element
}

type cacheEntry struct {
	key    cacheKey
	res    *drained
	tuples int
}

func newResultCache(maxEntries, maxTuples int) *resultCache {
	if maxEntries <= 0 {
		return nil // caching disabled
	}
	return &resultCache{
		maxEntries: maxEntries,
		maxTuples:  maxTuples,
		ll:         list.New(),
		m:          map[cacheKey]*list.Element{},
	}
}

func (c *resultCache) get(key cacheKey) (*drained, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// admits reports whether a result of n tuples fits the tuple budget, so a
// caller materializing a result only for the cache can stop as soon as it
// no longer would. A nil (disabled) cache admits nothing.
func (c *resultCache) admits(n int) bool {
	return c != nil && n <= c.maxTuples
}

// put stores res under key; the entry lives until evicted or invalidated
// by a generation bump.
func (c *resultCache) put(key cacheKey, res *drained) {
	if c == nil {
		return
	}
	n := res.tuples
	c.mu.Lock()
	defer c.mu.Unlock()
	// Admission by size: a result larger than the whole tuple budget can
	// never fit, so refuse it up front instead of letting the eviction loop
	// drain the entire warm set before dropping it anyway. The stale-entry
	// removal below is unreachable under the Service's deterministic keying
	// (same key ⇒ same tuple count ⇒ it was refused too) but keeps the
	// cache's accounting self-contained for any other caller.
	if !c.admits(n) {
		if el, ok := c.m[key]; ok {
			c.ll.Remove(el)
			c.tuples -= el.Value.(*cacheEntry).tuples
			delete(c.m, key)
		}
		return
	}
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.tuples += n - e.tuples
		e.res, e.tuples = res, n
	} else {
		c.m[key] = c.ll.PushFront(&cacheEntry{key: key, res: res, tuples: n})
		c.tuples += n
	}
	for c.ll.Len() > 0 && (c.ll.Len() > c.maxEntries || c.tuples > c.maxTuples) {
		el := c.ll.Back()
		c.ll.Remove(el)
		e := el.Value.(*cacheEntry)
		c.tuples -= e.tuples
		delete(c.m, e.key)
	}
}

// dropCorpus removes every entry belonging to the named corpus, and only
// those: the corpus field must match exactly. Generation bumps already make
// such entries unreachable; dropping them on corpus deletion returns their
// tuple budget to live corpora immediately instead of waiting for LRU
// pressure.
func (c *resultCache) dropCorpus(name string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, el := range c.m {
		if key.corpus == name {
			c.ll.Remove(el)
			c.tuples -= el.Value.(*cacheEntry).tuples
			delete(c.m, key)
		}
	}
}

func (c *resultCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// tupleCount reports the total tuples held across all entries.
func (c *resultCache) tupleCount() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tuples
}
