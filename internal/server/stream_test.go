package server

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/corpus"
	"repro/koko"
)

// TestStreamHoldsNothingTheCacheCannotTake: a streamed answer is held in
// memory only for a cache that can take it. On a service whose cache is
// disabled, a stream that does not set NoCache must allocate no more than
// the same stream with NoCache, and must put the same bytes on the wire.
func TestStreamHoldsNothingTheCacheCannotTake(t *testing.T) {
	svc := NewService(Config{MaxConcurrent: 1, CacheSize: -1})
	if err := svc.Registry().Register("h", koko.NewEngine(koko.WrapCorpus(corpus.GenHappyDB(3000, 7)), nil)); err != nil {
		t.Fatal(err)
	}
	q := `extract v:Str from "d" if (/ROOT:{ v = //verb })`

	// stream drains one answer, hashing its tuple and shard lines (the
	// done line carries timings), and reports the bytes it allocated.
	stream := func(noCache bool) (alloc uint64, tuples int, digest [32]byte) {
		h := sha256.New()
		enc := json.NewEncoder(h)
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := svc.QueryStream(context.Background(), QueryRequest{Corpus: "h", Query: q, NoCache: noCache}, func(ev StreamEvent) error {
			if ev.Done != nil {
				tuples = ev.Done.Tuples
				return nil
			}
			return enc.Encode(ev)
		})
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		copy(digest[:], h.Sum(nil))
		return m1.TotalAlloc - m0.TotalAlloc, tuples, digest
	}

	stream(true) // warm the engine's caches
	var noCache, withCache uint64
	for i := 0; i < 3; i++ {
		a, n, d := stream(true)
		b, m, e := stream(false)
		if n < 5000 || n != m {
			t.Fatalf("tuples: no_cache %d, cache %d; want the same large answer", n, m)
		}
		if d != e {
			t.Fatal("streamed bytes differ between no_cache true and false")
		}
		if i == 0 || a < noCache {
			noCache = a
		}
		if i == 0 || b < withCache {
			withCache = b
		}
	}
	t.Logf("alloc no_cache:true %d, no_cache:false %d", noCache, withCache)
	if float64(withCache) > 1.03*float64(noCache) {
		t.Errorf("with the cache disabled, a no_cache:false stream allocated %d bytes against %d with no_cache:true; want within 3%%",
			withCache, noCache)
	}
	if m := svc.Metrics(); m.CacheEntries != 0 {
		t.Errorf("cache_entries = %d on a disabled cache", m.CacheEntries)
	}
}
