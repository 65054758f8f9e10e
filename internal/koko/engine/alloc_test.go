//go:build !race

package engine

import (
	"testing"

	"repro/internal/koko/lang"
)

// Allocation ceilings for the satisfying path, next to
// BenchmarkExtractSatisfying's workload. The aggregator is per-worker scratch
// and takes values as token spans, so after warm-up evaluating a document
// allocates only what it hands to the consumer: per emitted tuple the Values
// slice, the rendered strings, the Scores map and the document's tuple slice.
// Nothing per document, per token or per rejected candidate. Skipped under
// -race (build tag): the race runtime allocates on its own.

// evalAllCandidates evaluates every candidate document of the query on one
// warmed-up worker and returns the allocations and emitted tuples per pass.
func evalAllCandidates(t *testing.T, e *Engine, src string) (allocs float64, tuples int) {
	t.Helper()
	nq, err := normalize(lang.MustParse(src), e.model, 0)
	if err != nil {
		t.Fatal(err)
	}
	dpli := runDPLI(nq, e.ix, true)
	if dpli.exhausted || dpli.allSentences || len(dpli.candSids) == 0 {
		t.Fatalf("query has no pruned candidate list: %s", src)
	}
	cands := dpli.candSids
	w := e.newDocWorker(nq, dpli, RunOptions{Workers: 1}, buildQueryPlan(nq, dpli, cands))
	allocs = testing.AllocsPerRun(3, func() {
		tuples = 0
		for i, sid := range cands { // one sentence per document in this corpus
			dr := w.evalDoc(e.corpus.DocOfSent[sid], cands[i:i+1])
			tuples += len(dr.tuples)
		}
	})
	return allocs, tuples
}

func TestSatisfyingAllocationCeilings(t *testing.T) {
	c := benchHappyDB(benchCorpusSents, benchCorpusSeed)
	e := benchEngineOver(c)

	// A clause no value can satisfy: every candidate is scored and rejected.
	const rejectAll = `
		extract o:Str from "happydb" if (
		/ROOT:{ v = //verb, b = v/dobj, o = (b.subtree) })
		satisfying o ("ate" o {0.7}) or (o near "delicious" {1}) with threshold 9`
	if allocs, tuples := evalAllCandidates(t, e, rejectAll); tuples != 0 || allocs != 0 {
		t.Errorf("rejecting every candidate: %v allocations per pass over the corpus, %d tuples; want 0 and 0", allocs, tuples)
	}

	// The benchmark query: allocations are bounded by what is emitted.
	allocs, tuples := evalAllCandidates(t, e, benchSatisfyingQuery)
	if tuples == 0 {
		t.Fatal("benchmark query emitted nothing")
	}
	// Values, Scores (header + table), the document's tuple slice, and the
	// rendered string: Sentence.Text grows its builder, 1-4 allocations by
	// length. Measured 6.8 per tuple when this ceiling was set.
	const perTuple = 8
	if allocs > perTuple*float64(tuples) {
		t.Errorf("%v allocations for %d emitted tuples, want at most %d per tuple", allocs, tuples, perTuple)
	}

	// End to end (normalize, DPLI, plan, evaluation, collection) the HappyDB
	// query measured 3 859 allocations per run when this ceiling was set, and
	// 40 164 before the aggregator became per-worker scratch.
	q := lang.MustParse(benchSatisfyingQuery)
	perRun := testing.AllocsPerRun(3, func() {
		if _, err := e.Run(q); err != nil {
			t.Fatal(err)
		}
	})
	if perRun > 4500 {
		t.Errorf("BenchmarkExtractSatisfying workload: %v allocations per run, ceiling 4500", perRun)
	}
}
