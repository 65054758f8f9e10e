package server

import (
	"context"
	"testing"

	"repro/internal/corpus"
	"repro/koko"
)

// Cache-key plan invariance and the /v1/query plan surface: two different
// writings of the same conjunction canonicalize to one cache entry, plan
// on/off keep separate entries, and planner activity shows up in the
// response plan block and the metrics counters.

// planWrittenA and planWrittenB are the same conjunction with the
// independent conditions written in different orders; Canonical() maps both
// to one text, so they must share a cache entry.
const planWrittenA = `
	extract x:Str from "moments" if (
	/ROOT:{ v = //verb, o = v/dobj, x = (o.subtree), z = ^[min=1,max=2] } (z) in (x))`

const planWrittenB = `
	extract x:Str from "moments" if (
	/ROOT:{ z = ^[min=1,max=2], v = //verb, o = v/dobj, x = (o.subtree) } (z) in (x))`

func newPlanTestService(t *testing.T) *Service {
	t.Helper()
	svc := NewService(Config{MaxConcurrent: 4, CacheSize: 32})
	eng := koko.NewEngine(koko.WrapCorpus(corpus.GenHappyDB(120, 5)), nil)
	svc.Registry().Register("moments", eng)
	return svc
}

// TestPlanInvariantCacheKey: a reordered-but-equivalent conjunction is a
// cache hit, while flipping the planner on/off is not.
func TestPlanInvariantCacheKey(t *testing.T) {
	svc := newPlanTestService(t)
	ctx := context.Background()

	r1, err := svc.Query(ctx, QueryRequest{Corpus: "moments", Query: planWrittenA})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Fatal("first query reported cached")
	}
	r2, err := svc.Query(ctx, QueryRequest{Corpus: "moments", Query: planWrittenB})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("reordered-but-equivalent conjunction missed the cache")
	}
	if len(r2.Tuples) != len(r1.Tuples) {
		t.Fatalf("cache hit returned %d tuples, want %d", len(r2.Tuples), len(r1.Tuples))
	}

	// Plan "on" is the service default here, so an explicit "on" shares the
	// entry and "off" does not.
	rOn, err := svc.Query(ctx, QueryRequest{Corpus: "moments", Query: planWrittenA, Plan: "on"})
	if err != nil {
		t.Fatal(err)
	}
	if !rOn.Cached {
		t.Fatal("explicit plan=on missed the default-plan cache entry")
	}
	rOff, err := svc.Query(ctx, QueryRequest{Corpus: "moments", Query: planWrittenA, Plan: "off"})
	if err != nil {
		t.Fatal(err)
	}
	if rOff.Cached {
		t.Fatal("plan=off hit the plan=on cache entry")
	}
	if rOff.Plan != nil {
		t.Fatal("plan=off response carries a plan block")
	}
	rOff2, err := svc.Query(ctx, QueryRequest{Corpus: "moments", Query: planWrittenB, Plan: "off"})
	if err != nil {
		t.Fatal(err)
	}
	if !rOff2.Cached {
		t.Fatal("equivalent plan=off query missed the plan=off cache entry")
	}
}

// TestPlanSurface: the response plan block reports the chosen order with
// estimates and actuals, and the metrics counters move when a query is
// reordered.
func TestPlanSurface(t *testing.T) {
	svc := newPlanTestService(t)
	ctx := context.Background()

	before := svc.Metrics()
	// Adversarial writing: the O(t²) elastic span first, the rarely-adjacent
	// two-word phrase last — the planner must move the phrase to the front.
	src := `extract a:Str from "moments" if (
		/ROOT:{ a = ^[min=1,max=2], v = //verb, w = "today and" } (w) in (a))`
	r, err := svc.Query(ctx, QueryRequest{Corpus: "moments", Query: src})
	if err != nil {
		t.Fatal(err)
	}
	if r.Plan == nil {
		t.Fatal("planned query response has no plan block")
	}
	if !r.Plan.Reordered {
		t.Fatal("adversarial query was not reordered")
	}
	if len(r.Plan.Steps) != 3 {
		t.Fatalf("plan has %d steps, want 3", len(r.Plan.Steps))
	}
	if first := r.Plan.Steps[0]; first.Var != "w" || first.Kind != "tokens" {
		t.Fatalf("plan did not move the phrase first: %+v", first)
	}
	for _, st := range r.Plan.Steps {
		if st.Estimated <= 0 {
			t.Fatalf("step %q has no estimate: %+v", st.Var, st)
		}
	}

	after := svc.Metrics()
	if after.PlansReordered != before.PlansReordered+1 {
		t.Fatalf("plans_reordered = %d, want %d", after.PlansReordered, before.PlansReordered+1)
	}
	if after.PlanTimeMicros < before.PlanTimeMicros {
		t.Fatalf("plan_time_us went backwards: %d -> %d", before.PlanTimeMicros, after.PlanTimeMicros)
	}
	if after.QueriesTotal == before.QueriesTotal {
		t.Fatal("queries counter did not move")
	}
}
