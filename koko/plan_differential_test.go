package koko

import (
	"fmt"
	"testing"

	"repro/internal/corpus"
)

// The planner differential suite: selectivity-ordered evaluation
// (Plan:"on") must produce byte-identical results to written-order
// evaluation (Plan:"off" — the frozen seed evaluator's order) for every
// corpus generator, shard count, and worker setting, including delta-index
// snapshots taken mid-ingest. Run under -race: Workers=2 exercises the
// reordered candidate build concurrently.

// planDiffQueries extends a diffCase's workload with a query shaped to make
// the planner reorder: the elastic span, whose candidate build scans O(t²)
// spans per sentence, is written first, and a two-word phrase whose words
// co-occur often but are rarely adjacent is written last. The phrase's DPLI
// estimate is the smallest, so the plan moves it to the front and most
// sentences bail before the elastic build.
func planDiffQueries(tc diffCase, source, phrase string) []string {
	q := fmt.Sprintf(`extract a:Str from %q if (
		/ROOT:{ a = ^[min=1,max=2], v = //verb, w = %q } (w) in (a))`, source, phrase)
	return append(append([]string(nil), tc.queries...), q)
}

// planPhrases pairs each diffCase corpus with its adversarial phrase and
// query source name.
var planPhrases = map[string]struct{ source, phrase string }{
	"cafes":   {"blogs", "on the"},
	"tweets":  {"tweets", "at the"},
	"happydb": {"moments", "today and"},
}

// TestPlanDifferential: planner-on vs planner-off over three generators,
// K ∈ {1,3} shards, Workers=2, plain and Explain. At least one query in the
// suite must actually reorder, or the comparison is vacuous.
func TestPlanDifferential(t *testing.T) {
	reorderedAny := false
	for _, tc := range diffCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c := tc.corpus()
			pp := planPhrases[tc.name]
			queries := planDiffQueries(tc, pp.source, pp.phrase)
			engines := []struct {
				name string
				q    Querier
			}{
				{"k=1", NewEngine(c, nil)},
				{"k=3", NewShardedEngine(c, 3, nil)},
			}
			tuples := 0
			for _, eng := range engines {
				for qi, src := range queries {
					for _, explain := range []bool{false, true} {
						off := mustRun(t, eng.q, src, &QueryOptions{Workers: 2, Explain: explain, Plan: "off"})
						on := mustRun(t, eng.q, src, &QueryOptions{Workers: 2, Explain: explain, Plan: "on"})
						label := fmt.Sprintf("%s q=%d explain=%t", eng.name, qi, explain)
						sameResults(t, label, off, on)
						tuples += len(on.Tuples)
						if off.Plan != nil {
							t.Errorf("%s: plan-off result carries a plan block", label)
						}
						if on.Plan != nil && on.Plan.Reordered {
							reorderedAny = true
						}
					}
				}
			}
			if tuples == 0 {
				t.Fatal("workload produces no tuples; differential test is vacuous")
			}
		})
	}
	if !reorderedAny {
		t.Fatal("no query in the suite was reordered; the differential never exercised the planner")
	}
}

// TestPlanDifferentialMutable: the same on/off equivalence must hold on a
// delta-index snapshot taken mid-ingest (base + unsealed delta) and again
// after more ingestion — the planner sees per-snapshot DPLI estimates, the
// written-order baseline must still match byte for byte.
func TestPlanDifferentialMutable(t *testing.T) {
	base := WrapCorpus(corpus.GenHappyDB(200, 3))
	m := NewMutable(NewEngine(base, nil), nil)
	m.SetName("moments")
	extra := []string{
		"I ate a delicious cheesecake today and felt great about it.",
		"We watched the game today and my team won the whole thing.",
		"She bought some flowers today and put them on the table.",
		"He cooked a delicious dinner and we ate it together today.",
	}
	src := `extract a:Str from "moments" if (
		/ROOT:{ a = ^[min=1,max=2], v = //verb, w = "today and" } (w) in (a))`
	check := func(stage string, snap *Snapshot) {
		t.Helper()
		off := mustRun(t, snap, src, &QueryOptions{Workers: 2, Plan: "off"})
		on := mustRun(t, snap, src, &QueryOptions{Workers: 2, Plan: "on"})
		sameResults(t, stage, off, on)
		if len(on.Tuples) == 0 {
			t.Fatalf("%s: no tuples; differential is vacuous", stage)
		}
	}
	// Mid-ingest: two docs in the delta, two still to come.
	for i, text := range extra[:2] {
		if _, err := m.AddDocument(fmt.Sprintf("extra-%d", i), text); err != nil {
			t.Fatal(err)
		}
	}
	snap := m.Snapshot()
	if snap.DeltaDocs() != 2 {
		t.Fatalf("mid-ingest snapshot has %d delta docs, want 2", snap.DeltaDocs())
	}
	check("mid-ingest", snap)
	for i, text := range extra[2:] {
		if _, err := m.AddDocument(fmt.Sprintf("late-%d", i), text); err != nil {
			t.Fatal(err)
		}
	}
	// The earlier snapshot must be unaffected by later ingestion, and the
	// new snapshot must agree with itself under both plans.
	check("mid-ingest-after-more", snap)
	check("post-ingest", m.Snapshot())
	if _, err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	check("post-compact", m.Snapshot())
}
