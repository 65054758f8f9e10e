//go:build !race

package engine_test

import (
	"runtime"
	"testing"

	"repro/internal/corpus"
	"repro/internal/embed"
	"repro/internal/koko/engine"
	"repro/internal/koko/index"
	"repro/internal/koko/lang"
)

// TestDPLINodeLeadAllocations: a path without words whose lead matches
// several hierarchy nodes (`//verb`) merges those nodes' kept postings
// straight into its result, with no second copy of them. Candidates of the
// benchmark's satisfying query over a 10 000-document HappyDB corpus
// allocated 300 080 B while DPLI merged materialized hierarchy unions,
// 510 512 B while the lead's kept postings were merged through a scratch
// copy, and 297 880 B when this ceiling was set. Skipped under -race (build
// tag): the race runtime allocates on its own.
func TestDPLINodeLeadAllocations(t *testing.T) {
	c := corpus.GenHappyDB(10000, 1)
	e := engine.New(c, index.Build(c), embed.NewModel(), engine.Options{})
	q := lang.MustParse(`extract o:Str from "happydb" if (/ROOT:{ v = //verb, b = v/dobj, o = (b.subtree) })
		satisfying o ("ate" o {0.7}) or (o near "delicious" {1}) with threshold 0.2`)
	if cands, err := e.Candidates(q); err != nil || len(cands) == 0 {
		t.Fatalf("%d candidates, %v", len(cands), err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := e.Candidates(q); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 300_080 {
		t.Errorf("Candidates allocated %d B, ceiling 300 080 B", got)
	}
}
