package server

import (
	"container/list"
	"sync"
	"time"

	"repro/koko"
)

// resultCache is an LRU cache of query results, keyed on
// (corpus, generation, explain, canonical query) by the Service. Values are
// shared between requests and MUST be treated as immutable by readers.
//
// The cache is bounded two ways: by entry count and by the total number of
// cached tuples (the dominant memory cost of a result). When either budget
// is exceeded, least-recently-used entries are evicted until both hold — so
// one query returning a huge tuple table pushes out many small results, and
// a result larger than the whole tuple budget is simply not retained
// (admission by size, the ROADMAP's memory-bounds item).
//
// Entries may additionally carry a TTL (chosen per put, so per-corpus
// policies compose): an expired entry is treated as a miss and removed
// lazily at lookup — no sweeper goroutine, time-sensitive corpora simply
// stop serving stale results.
type resultCache struct {
	mu         sync.Mutex
	maxEntries int
	maxTuples  int        // <= 0 means no tuple budget
	tuples     int        // current total tuple count across entries
	ll         *list.List // front = most recently used
	m          map[cacheKey]*list.Element
}

type cacheEntry struct {
	key    cacheKey
	res    *koko.Result
	tuples int
	// expires is the entry's lazy expiry deadline; zero means no TTL.
	expires time.Time
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

func (c *resultCache) get(key cacheKey) (*koko.Result, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if !e.expires.IsZero() && time.Now().After(e.expires) {
		c.ll.Remove(el)
		c.tuples -= e.tuples
		delete(c.m, key)
		return nil, false
	}
	c.ll.MoveToFront(el)
	return e.res, true
}

// put stores res under key. ttl > 0 gives the entry a lazy expiry deadline;
// ttl <= 0 means the entry lives until evicted or invalidated by a
// generation bump.
func (c *resultCache) put(key cacheKey, res *koko.Result, ttl time.Duration) {
	if c == nil {
		return
	}
	n := len(res.Tuples)
	c.mu.Lock()
	defer c.mu.Unlock()
	// Admission by size: a result larger than the whole tuple budget can
	// never fit, so refuse it up front instead of letting the eviction loop
	// drain the entire warm set before dropping it anyway. The stale-entry
	// removal below is unreachable under the Service's deterministic keying
	// (same key ⇒ same tuple count ⇒ it was refused too) but keeps the
	// cache's accounting self-contained for any other caller.
	if c.maxTuples > 0 && n > c.maxTuples {
		if el, ok := c.m[key]; ok {
			c.ll.Remove(el)
			c.tuples -= el.Value.(*cacheEntry).tuples
			delete(c.m, key)
		}
		return
	}
	var expires time.Time
	if ttl > 0 {
		expires = time.Now().Add(ttl)
	}
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.tuples += n - e.tuples
		e.res, e.tuples, e.expires = res, n, expires
	} else {
		c.m[key] = c.ll.PushFront(&cacheEntry{key: key, res: res, tuples: n, expires: expires})
		c.tuples += n
	}
	for c.ll.Len() > 0 && (c.ll.Len() > c.maxEntries || (c.maxTuples > 0 && c.tuples > c.maxTuples)) {
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
