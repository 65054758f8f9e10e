//go:build !race

package koko

import (
	"context"
	"slices"
	"testing"

	"repro/internal/corpus"
)

// TestKokoLayerAllocsPerTuple: the koko layer hands the engine's tuples to
// the consumer without copying them into another type, so on top of
// engine.Stream + Collect, Engine.Run + Collect allocates per run and per
// batch, never per tuple. Explain is on: the evidence rows were the costliest
// thing a per-tuple copy would re-allocate. The difference is measured at two
// corpus sizes and must grow by less than half an allocation per additional
// tuple. Skipped under -race (build tag): the race runtime allocates on its
// own.
func TestKokoLayerAllocsPerTuple(t *testing.T) {
	const src = `extract x:Entity from "blogs" if ()
		satisfying x
		(str(x) contains "Cafe" {0.6}) or
		(x [["serves coffee"]] {0.3}) or
		(x [["hired barista"]] {0.3})
		with threshold 0.5`
	p, err := ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	measure := func(scale int) (extra float64, tuples int) {
		cfg := corpus.BaristaMagConfig(11)
		cfg.Articles *= scale
		cfg.CafesTotal *= scale
		e := NewEngine(WrapCorpus(corpus.GenCafes(cfg).Corpus), &Options{Explain: true})
		kokoAllocs := testing.AllocsPerRun(5, func() {
			seq, err := e.Run(ctx, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := seq.Collect()
			if err != nil {
				t.Fatal(err)
			}
			tuples = len(res.Tuples)
		})
		engineAllocs := testing.AllocsPerRun(5, func() {
			st, err := e.shards[0].eng.Stream(p.q, e.shards[0].runOptions(ctx, nil))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Collect(); err != nil {
				t.Fatal(err)
			}
		})
		return kokoAllocs - engineAllocs, tuples
	}
	smallExtra, smallTuples := measure(1)
	largeExtra, largeTuples := measure(4)
	if largeTuples < smallTuples+100 {
		t.Fatalf("corpus sizes yield %d and %d tuples; want the larger one at least 100 more", smallTuples, largeTuples)
	}
	perTuple := (largeExtra - smallExtra) / float64(largeTuples-smallTuples)
	t.Logf("koko-layer allocations: %.0f at %d tuples, %.0f at %d tuples (%.3f per added tuple)",
		smallExtra, smallTuples, largeExtra, largeTuples, perTuple)
	if perTuple >= 0.5 {
		t.Errorf("koko layer adds %.3f allocations per additional tuple, want < 0.5", perTuple)
	}
}

// TestStreamBatchAllocs: a shard's stream allocates each batch once at its
// limit (streamFirstBatchTuples, then streamBatchTuples) instead of growing
// it from nil, and never grows one: tuples of an engine block that overflow
// a batch start the next.
func TestStreamBatchAllocs(t *testing.T) {
	one, block, big := make([]Tuple, 1), make([]Tuple, 64), make([]Tuple, 300)
	ones, blocks := make([][]Tuple, 1000), make([][]Tuple, 20)
	for i := range ones {
		ones[i] = one
	}
	for i := range blocks {
		blocks[i] = block
	}
	for _, tc := range []struct {
		name   string
		docs   [][]Tuple
		sizes  []int // emitted batch lengths, then the tail's
		allocs float64
	}{
		{"one tuple per document", ones, []int{16, 256, 256, 256, 216}, 5},
		{"one document overflows the first batch", [][]Tuple{big}, []int{16, 256, 28}, 3},
		{"64-tuple blocks", blocks, []int{16, 256, 256, 256, 256, 240}, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sizes []int
			docs := slices.Values(tc.docs)
			emit := func(ts []Tuple) error {
				sizes = append(sizes, len(ts))
				return nil
			}
			tail, err := batchDocs(docs, emit)
			if err != nil {
				t.Fatal(err)
			}
			if sizes = append(sizes, len(tail)); !slices.Equal(sizes, tc.sizes) {
				t.Fatalf("batch sizes %v, want %v", sizes, tc.sizes)
			}
			sizes = make([]int, 0, 8)
			got := testing.AllocsPerRun(20, func() {
				sizes = sizes[:0]
				if _, err := batchDocs(docs, emit); err != nil {
					t.Fatal(err)
				}
			})
			if got > tc.allocs {
				t.Errorf("%.0f allocations per stream, want at most %.0f (one per batch)", got, tc.allocs)
			}
		})
	}
}
