package engine

import (
	"reflect"
	"testing"

	"repro/internal/embed"
	"repro/internal/koko/index"
	"repro/internal/koko/lang"
)

// Adversarially-ordered queries: the least selective condition (an elastic
// span with its O(t²) candidate enumeration) is written first, so written-
// order evaluation loops over it outermost. The planner must move it last —
// and still produce byte-identical output.
var planAdversarialQueries = []string{
	`extract d:Str from f if (/ROOT:{ a = ^[min=1,max=3], v = //verb, o = v/dobj, d = (o.subtree) } (a) in (d))`,
	`extract x:Str from f if (/ROOT:{ a = ^[max=2], v = //verb, w = "the", x = v + a + w })`,
	`extract d:Str, s:Str from f if (/ROOT:{ g = ^, v = //verb, o = v/dobj, d = (o.subtree), s = "i" + g + v + ^ + o })`,
}

func candidatesOf(dpli *dpliResult, c *index.Corpus) []int32 {
	if dpli.allSentences {
		all := make([]int32, c.NumSentences())
		for i := range all {
			all[i] = int32(i)
		}
		return all
	}
	return dpli.candSids
}

func TestPlanOrdersSmallestFirst(t *testing.T) {
	model := embed.NewModel()
	c := benchHappyDB(120, 7)
	ix := index.Build(c)

	nq, err := normalize(lang.MustParse(planAdversarialQueries[0]), model)
	if err != nil {
		t.Fatal(err)
	}
	dpli := runDPLI(nq, ix, true)
	plan := buildQueryPlan(nq, dpli, candidatesOf(dpli, c))
	if !plan.reordered {
		t.Fatalf("adversarial query not reordered: %+v", plan.steps)
	}
	last := nq.vars[plan.steps[len(plan.steps)-1].slot]
	if last.kind != vkElastic {
		t.Fatalf("elastic condition should order last, got %q (%s)", last.name, kindName(last.kind))
	}
	if first := nq.vars[plan.steps[0].slot]; first.name != "v" {
		t.Fatalf("expected the selective node condition first, got %q", first.name)
	}
	if plan.steps[0].est >= plan.steps[len(plan.steps)-1].est {
		t.Fatalf("estimates not ascending toward the elastic: %+v", plan.steps)
	}

	// The same conditions in well-chosen written order must keep their
	// order (ties break toward declaration order), so reordered stays
	// false and no re-sort cost is paid.
	well := `extract d:Str from f if (/ROOT:{ v = //verb, o = v/dobj, d = (o.subtree), z = ^[min=1,max=3] } (z) in (d))`
	nq, err = normalize(lang.MustParse(well), model)
	if err != nil {
		t.Fatal(err)
	}
	dpli = runDPLI(nq, ix, true)
	plan = buildQueryPlan(nq, dpli, candidatesOf(dpli, c))
	if plan.reordered {
		t.Fatalf("well-ordered query spuriously reordered: %+v", plan.steps)
	}
}

// TestPlannedMatchesWrittenOrder is the tentpole differential: planner-on
// and planner-off runs must produce byte-identical tuple sequences across
// query shapes and corpora.
func TestPlannedMatchesWrittenOrder(t *testing.T) {
	model := embed.NewModel()
	queries := append(append([]string{}, diffQueries...), planAdversarialQueries...)
	for cname, c := range diffCorpora() {
		ix := index.Build(c)
		e := New(c, ix, model, Options{})
		for _, src := range queries {
			q := lang.MustParse(src)
			off, err := e.RunWith(q, RunOptions{NoPlan: true})
			if err != nil {
				t.Fatalf("%s: plan-off: %v", cname, err)
			}
			on, err := e.RunWith(q, RunOptions{})
			if err != nil {
				t.Fatalf("%s: plan-on: %v", cname, err)
			}
			if !reflect.DeepEqual(off.Tuples, on.Tuples) {
				t.Fatalf("%s: planned tuples diverge\nquery: %s\noff: %v\non:  %v",
					cname, src, off.Tuples, on.Tuples)
			}
			if off.Plan != nil {
				t.Fatalf("plan-off run carries a plan")
			}
			if on.Plan == nil && on.CandidateSentences > 0 {
				t.Fatalf("plan-on run missing plan info (%s)", src)
			}
		}
	}
}

// TestPlannedMatchesSeedSemantics pins the planned evaluator to the frozen
// seed evaluator (refeval_test.go), sentence by sentence: same assignments,
// same bindings, same emission order.
func TestPlannedMatchesSeedSemantics(t *testing.T) {
	model := embed.NewModel()
	queries := append(append([]string{}, diffQueries...), planAdversarialQueries...)
	for cname, c := range diffCorpora() {
		ix := index.Build(c)
		for _, src := range queries {
			nq, err := normalize(lang.MustParse(src), model)
			if err != nil {
				t.Fatal(err)
			}
			dpli := runDPLI(nq, ix, true)
			plan := buildQueryPlan(nq, dpli, candidatesOf(dpli, c))
			rc := newRECache()
			cc := newCountCursor(dpli, len(nq.vars))
			cols := index.ColumnsOf(c)
			nq.bind(&cols.Dict)
			ev := newSentEval(nq, false)
			ev.setPlan(plan)
			for sid := 0; sid < c.NumSentences(); sid++ {
				s := c.Sentence(sid)
				want := refEvalSentence(nq, s, rc, refCountOf(dpli, nq, int32(sid)), false)
				v := cols.Sent(sid)
				got := ev.evalSentence(&v, &cc, int32(sid))
				if got != len(want) {
					t.Fatalf("%s sid=%d: planned emitted %d assignments, seed %d\nquery: %s",
						cname, sid, got, len(want), src)
				}
				for i := 0; i < got; i++ {
					a := ev.out(i)
					for _, v := range nq.vars {
						if a[v.slot] != want[i][v.name] {
							t.Fatalf("%s sid=%d assignment %d var %q: planned=%+v seed=%+v\nquery: %s",
								cname, sid, i, v.name, a[v.slot], want[i][v.name], src)
						}
					}
				}
			}
		}
	}
}

// TestPlanActualsAccumulate checks the estimated-vs-actual report: actual
// candidate counts accumulate across sentences.
func TestPlanActualsAccumulate(t *testing.T) {
	model := embed.NewModel()
	c := benchHappyDB(60, 7)
	ix := index.Build(c)
	e := New(c, ix, model, Options{})
	q := lang.MustParse(diffQueries[0])
	res, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil || len(res.Plan.Steps) == 0 {
		t.Fatal("missing plan info")
	}
	var total int64
	for _, st := range res.Plan.Steps {
		total += st.Actual
	}
	if total == 0 {
		t.Fatalf("no actual bindings accumulated: %+v", res.Plan.Steps)
	}
}
