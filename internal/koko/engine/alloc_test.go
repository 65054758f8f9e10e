//go:build !race

package engine

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/koko/index"
	"repro/internal/koko/lang"
)

// Allocation ceilings for the satisfying path, next to
// BenchmarkExtractSatisfying's workload. The aggregator is per-worker scratch
// and takes values as token spans, and a block renders its tuples' values
// into one string and cuts their Values slices from one slab, so after
// warm-up evaluating a block allocates only what it hands to the consumer:
// per emitted tuple the Scores map, per block with tuples that string and
// that slab. Nothing per document (the worker reuses its block slabs and
// tuple slice, and mentions come from word cursors kept across documents),
// per token or per rejected candidate. Skipped under -race (build tag): the
// race runtime allocates on its own.

// evalAllCandidates evaluates every candidate block of the query on one
// warmed-up worker and returns the allocations and emitted tuples per pass.
func evalAllCandidates(t *testing.T, e *Engine, src string) (allocs float64, tuples int) {
	t.Helper()
	nq, err := e.normalize(lang.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	dpli := runDPLI(nq, e.ix, true)
	if dpli.exhausted || dpli.allSentences || len(dpli.candSids) == 0 {
		t.Fatalf("query has no pruned candidate list: %s", src)
	}
	cands := dpli.candSids
	w := e.newBlockWorker(nq, dpli, RunOptions{}, buildQueryPlan(nq, dpli, cands))
	var res Result
	allocs = testing.AllocsPerRun(3, func() {
		tuples = 0
		for i := 0; i < len(cands); {
			i = w.fill(cands, i, blockSents)
			tuples += len(w.evalBlock(&res))
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
	// Scores (header + table) per tuple, plus the values string and the
	// Values slab per block. Measured 2.05 per tuple when this ceiling was
	// set (4.0 while every tuple allocated its Values slice and rendered
	// string, 5.0 while every document allocated its own tuple slice, 6.8
	// while Text grew its builder).
	const perTuple = 2.1
	if allocs > perTuple*float64(tuples) {
		t.Errorf("%v allocations for %d emitted tuples, want at most %v per tuple", allocs, tuples, perTuple)
	}

	// End to end (normalize, DPLI, plan, evaluation, collection). When
	// these ceilings were set the HappyDB satisfying query measured 1 343
	// allocations per run (2 327 while every tuple allocated its values,
	// 2 844 while every document allocated its own tuple slice, 3 820
	// before Sentence.Text sized its builder, and 40 164 before the
	// aggregator became per-worker scratch), and BenchmarkExtractHotPath's
	// query, whose 857 tuples are most of its cost, 563 (3 058 while every
	// tuple allocated its values).
	for _, c := range []struct {
		name, src string
		ceiling   float64
	}{
		{"BenchmarkExtractSatisfying", benchSatisfyingQuery, 1400},
		{"BenchmarkExtractHotPath", benchExtractQuery, 600},
	} {
		q := lang.MustParse(c.src)
		perRun := testing.AllocsPerRun(3, func() {
			if _, err := e.Run(q); err != nil {
				t.Fatal(err)
			}
		})
		if perRun > c.ceiling {
			t.Errorf("%s workload: %v allocations per run, ceiling %v", c.name, perRun, c.ceiling)
		}
	}
}

// TestDPLIDoesNotMaterializeUnions: the planned DPLI of a query whose POS
// path `//verb/*` matches several hierarchy nodes never walks their union:
// the query's word anchors the lookup and the node ids are read from the
// index's columns, so it allocates less than one materialized copy of that
// union would take.
func TestDPLIDoesNotMaterializeUnions(t *testing.T) {
	e := benchEngineOver(benchHappyDB(benchCorpusSents, benchCorpusSeed))
	src := benchJoinQueries[1] // //verb/dobj[text="cake"]
	nq, err := normalize(lang.MustParse(src), e.model)
	if err != nil {
		t.Fatal(err)
	}
	lists, postings := 0, 0
	for _, n := range e.ix.POS.LookupNodes(index.Path{{Desc: true, Label: "verb"}, {Label: "*"}}) {
		if l := index.ListLen(e.ix.POS.NodeList(n)); l > 0 {
			lists++
			postings += l
		}
	}
	if lists < 2 {
		t.Fatalf("//verb/* matches %d non-empty hierarchy nodes, want several", lists)
	}
	oneCopy := uint64(postings) * uint64(unsafe.Sizeof(index.Posting{}))
	if d := runDPLI(nq, e.ix, true); d.exhausted || len(d.candSids) == 0 {
		t.Fatal("query pruned to nothing")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runDPLI(nq, e.ix, true)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= oneCopy {
		t.Errorf("runDPLI(planned) allocated %d B, not below one materialized //verb/* union (%d postings, %d B)",
			got, postings, oneCopy)
	}
}

// TestPathMatchAndTextAllocations pins the two per-sentence helpers of the
// extract loop: a warm path matcher allocates nothing per sentence (its memo
// and the caller's result buffer are reused), and Sentence.Text sizes its
// builder first, so rendering a span allocates exactly once.
func TestPathMatchAndTextAllocations(t *testing.T) {
	c := index.ColumnsOf(benchHappyDB(benchCorpusSents, benchCorpusSeed))
	paths := [][]lang.PathStep{
		{{Desc: true, Label: "verb"}, {Label: "dobj"}},
		{{Label: "root"}, {Desc: true, Label: "*", Conds: []lang.LabelCond{{Key: "regex", Value: "[a-z]+"}}}},
	}
	var pm pathMatcher
	var dst []int32
	var s index.Sent // the matcher keeps a pointer to it, so it lives outside the pass
	for _, p := range paths {
		steps := compilePath(p)
		bindSteps(steps, &c.Dict)
		matched := 0
		pass := func() {
			matched = 0
			for sid := 0; sid < c.NumSentences(); sid++ {
				s = c.Sent(sid)
				dst = pm.match(&s, steps, dst[:0])
				matched += len(dst)
			}
		}
		pass() // warm: memo and dst reach the longest sentence
		if allocs := testing.AllocsPerRun(3, pass); allocs != 0 || matched == 0 {
			t.Errorf("%+v: %v allocations per pass over %d sentences, %d matches; want 0 allocations and some matches",
				p, allocs, c.NumSentences(), matched)
		}
	}

	s = c.Sent(0)
	var text string
	allocs := testing.AllocsPerRun(10, func() { text = s.Text(0, s.Len()-1) })
	if allocs != 1 || text == "" {
		t.Errorf("Sentence.Text(%q): %v allocations, want 1", text, allocs)
	}
}
