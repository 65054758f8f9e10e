//go:build !race

package koko

import (
	"context"
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
			st, err := e.eng.Stream(p.q, e.runOptions(ctx, nil))
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
