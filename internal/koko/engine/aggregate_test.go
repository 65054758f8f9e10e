package engine

import (
	"testing"

	"repro/internal/embed"
	"repro/internal/koko/index"
	"repro/internal/koko/lang"
)

// TestContainsMentionsSemantics pins the paper's §4.4.1 example: "chocolate
// ice cream" contains "ice", mentions "choc", but does not contain "choc".
func TestContainsMentionsSemantics(t *testing.T) {
	value := "chocolate ice cream"
	ag := newAggregator(nil, nil, nil, nil, newGlobalCache())
	cases := []struct {
		kind lang.SatKind
		arg  string
		want float64
	}{
		{lang.CondContains, "ice", 1},
		{lang.CondMentions, "choc", 1},
		{lang.CondContains, "choc", 0},
		{lang.CondContains, "chocolate ice", 1},
		{lang.CondMentions, "late ice", 1},
		{lang.CondContains, "cream cheese", 0},
		{lang.CondMatches, "choc.*", 1},
		{lang.CondMatches, "choc", 0}, // full match only
	}
	for _, tc := range cases {
		got := ag.valueConfidence(&normCond{SatCond: lang.SatCond{Kind: tc.kind, Arg: tc.arg, Var: "x"}, re: compileRegexp(tc.arg)}, value)
		if got != tc.want {
			t.Errorf("%v(%q) on %q = %v, want %v", tc.kind, tc.arg, value, got, tc.want)
		}
	}
}

// TestNearScoreFormula pins score = 1/(1+distance).
func TestNearScoreFormula(t *testing.T) {
	c := index.ColumnsOf(index.NewCorpus(nil, []string{"Cafe Benz serves great coffee."}))
	s := c.Sent(0)
	nq, err := normalize(lang.MustParse(`extract x:Entity from f if () satisfying x
		(x near "coffee" {1}) or (x near "serves" {1}) or (x near "missing" {1})
		or (x "serves great" {1}) or ("serves" x {1}) or ("." x {1})`), nil)
	if err != nil {
		t.Fatal(err)
	}
	nq.bind(&c.Dict)
	ag := newAggregator(index.BuildColumns(c), &c.Dict, nil, nil, newGlobalCache())
	ag.reset(0, []index.Sent{s})
	// The value is handed over as its token span: "Cafe Benz" is tokens 0-1.
	cafeBenz := &spanValue{s: &s, sp: span{0, 1}}
	cond := func(i int) float64 { return ag.confidence(&nq.satisfying[0].conds[i], cafeBenz) }
	// "Cafe Benz" tokens 0-1; "coffee" token 4; gap = tokens 2,3 => dist 2.
	got := cond(0)
	want := 1.0 / 3.0
	if got != want {
		t.Errorf("near = %v, want %v", got, want)
	}
	// Adjacent: "serves" at 2, dist 0 => 1.
	if got := cond(1); got != 1 {
		t.Errorf("adjacent near = %v", got)
	}
	if got := cond(2); got != 0 {
		t.Errorf("absent near = %v", got)
	}
	// Adjacency: followed by "serves great"; not preceded by anything (the
	// mention opens the sentence, so the probe position is negative).
	if got := cond(3); got != 1 {
		t.Errorf("followed-by = %v", got)
	}
	if got, got2 := cond(4), cond(5); got != 0 || got2 != 0 {
		t.Errorf("preceded-by = %v, %v", got, got2)
	}
}

// TestDescriptorDirectionality: x [[d]] only credits evidence after the
// mention; [[d]] x only before.
func TestDescriptorDirectionality(t *testing.T) {
	texts := []string{"The baristas of Gravity Beans won again. Gravity Beans serves espresso."}
	c := index.NewCorpus(nil, texts)
	ix := index.Build(c)
	e := New(c, ix, embed.NewModel(), Options{})
	right := lang.MustParse(`extract x:Entity from f if () satisfying x (x [["serves coffee"]] {1}) with threshold 0.3`)
	left := lang.MustParse(`extract x:Entity from f if () satisfying x ([["baristas of"]] x {1}) with threshold 0.3`)
	r1, err := e.Run(right)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Run(left)
	if err != nil {
		t.Fatal(err)
	}
	found := func(res *Result, v string) bool {
		for _, tp := range res.Tuples {
			if tp.Values[0] == v {
				return true
			}
		}
		return false
	}
	if !found(r1, "Gravity Beans") {
		t.Errorf("right descriptor missed: %v", r1.Tuples)
	}
	if !found(r2, "Gravity Beans") {
		t.Errorf("left descriptor missed: %v", r2.Tuples)
	}
	// "espresso" (entity after "serves") must not be credited by the
	// RIGHT-side descriptor: nothing follows it.
	if found(r1, "espresso") {
		t.Errorf("right descriptor credited trailing entity: %v", r1.Tuples)
	}
}

// TestEqConstraint: (expr) eq (x) requires identical spans.
func TestEqConstraint(t *testing.T) {
	texts := []string{"Anna ate cheesecake."}
	c := index.NewCorpus(nil, texts)
	ix := index.Build(c)
	e := New(c, ix, nil, Options{})
	q := lang.MustParse(`extract d:Str from f if (/ROOT:{
		v = //verb, o = v/dobj, d = (v.subtree)
	} (o) eq (o))`)
	res, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) == 0 {
		t.Fatal("eq self failed")
	}
	// eq between different-span vars filters everything.
	q2 := lang.MustParse(`extract d:Str from f if (/ROOT:{
		v = //verb, o = v/dobj, s = v/nsubj, d = (v.subtree)
	} (o) eq (s))`)
	res2, err := e.Run(q2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Tuples) != 0 {
		t.Errorf("eq of distinct spans matched: %v", res2.Tuples)
	}
}

// TestElasticConditions: min/max/etype bracket conditions on ^ constrain
// horizontal matches.
func TestElasticConditions(t *testing.T) {
	texts := []string{"Anna ate some delicious cheesecake."}
	c := index.NewCorpus(nil, texts)
	ix := index.Build(c)
	e := New(c, ix, nil, Options{})
	// Gap between verb and "cheesecake" is 2 tokens; max=1 must fail,
	// min=2 must succeed.
	fail := lang.MustParse(`extract x:Str from f if (/ROOT:{
		v = //verb, w = "cheesecake", x = v + ^[max=1] + w })`)
	ok := lang.MustParse(`extract x:Str from f if (/ROOT:{
		v = //verb, w = "cheesecake", x = v + ^[min=2] + w })`)
	r1, err := e.Run(fail)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Tuples) != 0 {
		t.Errorf("max=1 matched: %v", r1.Tuples)
	}
	r2, err := e.Run(ok)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Tuples) != 1 || r2.Tuples[0].Values[0] != "ate some delicious cheesecake" {
		t.Errorf("min=2: %v", r2.Tuples)
	}
	// etype condition: the elastic must be exactly an entity span.
	ent := lang.MustParse(`extract x:Str from f if (/ROOT:{
		s = /root/nsubj, v = //verb, x = s + v + ^[etype="Entity"] })`)
	r3, err := e.Run(ent)
	if err != nil {
		t.Fatal(err)
	}
	if len(r3.Tuples) != 0 {
		// "some delicious cheesecake" isn't an entity span (entity is just
		// "cheesecake"), so nothing should match.
		t.Errorf("etype elastic matched: %v", r3.Tuples)
	}
}

// TestScoresSurfaceInResult: similarTo scores flow into Tuple.Scores
// (Example 2.2 prints them).
func TestScoresSurfaceInResult(t *testing.T) {
	c := index.NewCorpus(nil, []string{"cities such as Tokyo."})
	ix := index.Build(c)
	e := New(c, ix, embed.NewModel(), Options{})
	q := lang.MustParse(`extract a:GPE from f if () satisfying a (a SimilarTo "city" {1.0})`)
	res, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 1 {
		t.Fatalf("tuples = %v", res.Tuples)
	}
	s := res.Tuples[0].Scores["a"]
	if s <= 0.25 || s >= 0.7 {
		t.Errorf("score = %v, want Example 2.2 band", s)
	}
}

// TestMultipleSatisfyingClauses: the paper allows "up to one satisfying
// clause for each output variable" — both must pass for a tuple to survive.
func TestMultipleSatisfyingClauses(t *testing.T) {
	texts := []string{
		"Blue Fox Cafe hired Anna Smith from Portland.",
		"Iron Owl Cafe opened downtown.",
	}
	c := index.NewCorpus(nil, texts)
	ix := index.Build(c)
	e := New(c, ix, embed.NewModel(), Options{})
	q := lang.MustParse(`
		extract x:Entity, p:Person from "blogs" if ()
		satisfying x (str(x) contains "Cafe" {1}) with threshold 0.5
		satisfying p (str(p) contains "Anna" {1}) with threshold 0.5`)
	res, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) == 0 {
		t.Fatal("no tuples")
	}
	for _, tp := range res.Tuples {
		if tp.Values[0] != "Blue Fox Cafe" || tp.Values[1] != "Anna Smith" {
			t.Errorf("tuple %v should have been filtered (both clauses must hold)", tp.Values)
		}
		if len(tp.Scores) != 2 {
			t.Errorf("scores for both variables expected: %v", tp.Scores)
		}
	}
}
