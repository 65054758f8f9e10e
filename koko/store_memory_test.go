//go:build !race

package koko

import (
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/corpus"
	"repro/internal/koko/index"
	"repro/internal/koko/index/blockstore"
)

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestBlockStoreMemoryBudget: querying a block store whose decoded posting
// volume is several times the cache budget must keep live-heap growth
// bounded by the budget plus per-query scratch — the larger-than-RAM
// property. Skipped under -race (build tag): the race runtime's shadow
// memory makes heap accounting meaningless. CI runs this test in its own
// step with a small GOMEMLIMIT so a residency regression fails loudly
// instead of quietly growing.
func TestBlockStoreMemoryBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("memory smoke is not -short friendly")
	}
	c := WrapCorpus(corpus.GenHappyDB(20000, 5))
	path := filepath.Join(t.TempDir(), "big.koko")
	if err := NewEngine(c, nil).Save(path); err != nil {
		t.Fatal(err)
	}

	// A budget far below the store's decodable posting volume (word lists
	// alone exceed it several times; hierarchy node lists are larger
	// still), so serving the suite forces eviction — verified below.
	const budget = 1 << 20
	r, err := blockstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	wordPostingBytes := int64(r.SourceStats().TotalPostings) * int64(unsafe.Sizeof(index.Posting{}))
	r.Close()
	if wordPostingBytes < 4*budget {
		t.Fatalf("corpus too small to exercise the budget: %d word-posting bytes vs %d budget", wordPostingBytes, budget)
	}
	blockstore.SetDefaultBudget(budget)
	defer blockstore.SetDefaultBudget(blockstore.DefaultBudgetBytes)

	eng, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if eng.shards[0].ix.Source() == nil {
		t.Fatal("engine is not block-backed")
	}

	// Word-anchored suite (pure-wildcard paths materialize whole hierarchy
	// unions by design, same as the heap store — not a paging regression).
	queries := []string{
		`extract e:Entity, d:Str from "moments" if
		 (/ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) } (b) in (e))`,
		`extract x:Str from "moments" if
		 (/ROOT:{ a = //"ate", b = a/dobj, x = (b.subtree) } (b) eq (b))`,
		`extract o:Str from "moments" if (
		 /ROOT:{ v = //verb, b = v/dobj, o = (b.subtree) })
		 satisfying o ("ate" o {0.7}) or (o near "delicious" {1}) with threshold 0.2`,
	}
	base := liveHeap() // corpus + engine resident, zero blocks decoded
	var peak uint64
	for pass := 0; pass < 2; pass++ {
		for _, src := range queries {
			if _, err := eng.Query(src); err != nil {
				t.Fatalf("query: %v", err)
			}
			if h := liveHeap(); h > peak {
				peak = h
			}
		}
	}
	growth := int64(peak) - int64(base)
	// Allow 2× budget for bounded CLOCK overshoot plus a fixed allowance
	// for the engine's own caches (regex, scores). What must NOT fit in
	// the allowance is the store's full posting volume.
	limit := int64(2*budget + 8<<20)
	if growth > limit {
		t.Fatalf("live heap grew %d bytes (budget %d, limit %d): block cache not bounding residency", growth, budget, limit)
	}
	st := blockstore.DefaultStats()
	if st.Decodes == 0 {
		t.Fatal("no blocks decoded — queries never touched the store")
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions despite %d word-posting bytes vs %d budget: %+v", wordPostingBytes, budget, st)
	}
}

// saveWikiStore writes a fixed generated corpus as a one-shard block store
// and returns its path; nothing it built stays reachable.
func saveWikiStore(t *testing.T) string {
	t.Helper()
	c, _ := corpus.GenWikipedia(2000, 17)
	path := filepath.Join(t.TempDir(), "wiki.koko")
	if err := NewEngine(WrapCorpus(c), nil).Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOpenStoreLiveHeapCeiling: opening a store for serving decodes its
// corpus into pointer-free token columns, so the live heap an opened store
// adds — columns, dictionary, directories, no posting block — stays under a
// ceiling. The ceiling is the measured growth (2.5 MB on this corpus, against
// 8.5 MB when every token was decoded into an nlp.Token) plus headroom.
// Skipped under -race (build tag); CI runs it in the memory-budget step.
func TestOpenStoreLiveHeapCeiling(t *testing.T) {
	path := saveWikiStore(t)
	before := liveHeap()
	eng, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	grew := int64(liveHeap()) - int64(before)
	runtime.KeepAlive(eng)
	const ceiling = 4 << 20
	t.Logf("opened store: live heap grew %.1f MB (ceiling %.1f MB)", float64(grew)/(1<<20), float64(ceiling)/(1<<20))
	if grew > ceiling {
		t.Errorf("opening the store grew the live heap by %d bytes, over the %d-byte ceiling", grew, ceiling)
	}
}
