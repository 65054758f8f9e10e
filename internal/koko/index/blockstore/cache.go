package blockstore

import (
	"fmt"
	"sync"
	"unsafe"

	"repro/internal/koko/index"
)

// Cache is the shared budgeted block cache: every open block store decodes
// through one cache (by default the process-global DefaultCache), so total
// decoded-posting residency is bounded by one budget regardless of how many
// corpora and shards a node serves. Eviction is CLOCK (one reference bit per
// entry, second-chance sweep); concurrent decodes of the same block collapse
// into one (singleflight) with waiters sharing the result.
type Cache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	entries map[cacheKey]*cacheEntry
	ring    []*cacheEntry
	hand    int

	hits, misses, decodes, evictions int64
}

type cacheKey struct {
	rid uint64 // reader identity
	off uint64 // block offset within the reader's blob
}

type cacheEntry struct {
	key   cacheKey
	ps    []index.Posting
	size  int64
	ref   bool
	done  bool
	err   error
	ready chan struct{}
}

// NewCache returns a cache bounded to budget bytes of decoded blocks.
// budget <= 0 means unbounded.
func NewCache(budget int64) *Cache {
	return &Cache{budget: budget, entries: map[cacheKey]*cacheEntry{}}
}

// SetBudget adjusts the byte budget and evicts down to it if shrinking.
func (c *Cache) SetBudget(budget int64) {
	c.mu.Lock()
	c.budget = budget
	c.evictLocked()
	c.mu.Unlock()
}

// CacheStats is a point-in-time snapshot of cache residency and traffic.
type CacheStats struct {
	BudgetBytes int64
	UsedBytes   int64
	Entries     int
	Hits        int64
	Misses      int64
	Decodes     int64
	Evictions   int64
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		BudgetBytes: c.budget,
		UsedBytes:   c.used,
		Entries:     len(c.ring),
		Hits:        c.hits,
		Misses:      c.misses,
		Decodes:     c.decodes,
		Evictions:   c.evictions,
	}
}

const (
	postingBytes = int64(unsafe.Sizeof(index.Posting{}))
	entryBytes   = int64(unsafe.Sizeof(cacheEntry{})) + 64 // entry + map/ring overhead
)

// getPostings returns the decoded posting block for key, decoding via load
// on a miss. Exactly one goroutine runs load per in-flight key; the rest
// wait on the same entry.
func (c *Cache) getPostings(key cacheKey, load func() ([]index.Posting, error)) ([]index.Posting, error) {
	e, owner := c.claim(key)
	if !owner {
		<-e.ready
		return e.ps, e.err
	}
	defer c.abandonOnPanic(e)
	ps, err := load()
	c.finish(e, ps, entryBytes+int64(len(ps))*postingBytes, err)
	return ps, err
}

// abandonOnPanic is deferred by the goroutine that owns a decode. If load
// panics (a memory fault on a store truncated under its mapping), it fails
// the entry the way finish fails a decode error, so current waiters and
// later accesses to the block do not block forever on a decode nobody will
// finish; then the panic goes on to the query's recovery boundary.
func (c *Cache) abandonOnPanic(e *cacheEntry) {
	if r := recover(); r != nil {
		c.finish(e, nil, 0, fmt.Errorf("blockstore: decode of block at %d panicked: %v", e.key.off, r))
		panic(r)
	}
}

// claim finds or creates the entry for key. The second return is true when
// the caller owns the decode; false means the entry is (or will be) ready.
func (c *Cache) claim(key cacheKey) (*cacheEntry, bool) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.done {
			e.ref = true
			c.hits++
			c.mu.Unlock()
			return e, false
		}
		// Decode in flight: wait with everyone else.
		c.mu.Unlock()
		return e, false
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = e
	c.misses++
	c.mu.Unlock()
	return e, true
}

// finish publishes a decode result (or failure) for an entry claimed by this
// goroutine. Failed decodes are not cached: the entry is removed so a later
// access retries, and every current waiter observes the error.
func (c *Cache) finish(e *cacheEntry, ps []index.Posting, size int64, err error) {
	c.mu.Lock()
	if err != nil {
		e.err = err
		delete(c.entries, e.key)
	} else {
		e.ps, e.size = ps, size
		e.done = true
		e.ref = true
		c.used += size
		c.decodes++
		c.ring = append(c.ring, e)
		c.evictLocked()
	}
	close(e.ready)
	c.mu.Unlock()
}

// evictLocked runs the CLOCK hand until usage fits the budget. Entries get
// one second chance via their reference bit; after two full sweeps without
// progress (everything referenced and re-referenced) it stops rather than
// spin — the budget is a target, not a hard wall, and the overshoot is at
// most the working set touched since the last sweep.
func (c *Cache) evictLocked() {
	if c.budget <= 0 {
		return
	}
	steps := 2 * len(c.ring)
	for c.used > c.budget && len(c.ring) > 1 && steps > 0 {
		if c.hand >= len(c.ring) {
			c.hand = 0
		}
		e := c.ring[c.hand]
		if e.ref {
			e.ref = false
			c.hand++
			steps--
			continue
		}
		delete(c.entries, e.key)
		c.used -= e.size
		c.evictions++
		last := len(c.ring) - 1
		c.ring[c.hand] = c.ring[last]
		c.ring[last] = nil
		c.ring = c.ring[:last]
	}
}

// dropReader evicts every cached block belonging to one reader (called on
// Reader.Close so a closed store's blocks stop charging the budget).
func (c *Cache) dropReader(rid uint64) {
	c.mu.Lock()
	w := 0
	for _, e := range c.ring {
		if e.key.rid == rid {
			delete(c.entries, e.key)
			c.used -= e.size
			continue
		}
		c.ring[w] = e
		w++
	}
	for i := w; i < len(c.ring); i++ {
		c.ring[i] = nil
	}
	c.ring = c.ring[:w]
	c.hand = 0
	c.mu.Unlock()
}

// --- process-global default cache ---

const DefaultBudgetBytes = 256 << 20

var (
	defaultMu     sync.Mutex
	defaultBudget int64 = DefaultBudgetBytes
	defaultCache  *Cache
)

// DefaultCache returns the shared process-wide cache every Reader uses
// unless given its own.
func DefaultCache() *Cache {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if defaultCache == nil {
		defaultCache = NewCache(defaultBudget)
	}
	return defaultCache
}

// SetDefaultBudget sets the shared cache's byte budget (the
// -store-cache-bytes flag). n <= 0 means unbounded.
func SetDefaultBudget(n int64) {
	defaultMu.Lock()
	defaultBudget = n
	c := defaultCache
	defaultMu.Unlock()
	if c != nil {
		c.SetBudget(n)
	}
}

// DefaultStats snapshots the shared cache without forcing its creation.
func DefaultStats() CacheStats {
	defaultMu.Lock()
	c := defaultCache
	b := defaultBudget
	defaultMu.Unlock()
	if c == nil {
		return CacheStats{BudgetBytes: b}
	}
	return c.Stats()
}
