package lang

import (
	"strings"
	"testing"
)

// TestParseExample21 pins the structure of the paper's Example 2.1.
func TestParseExample21(t *testing.T) {
	q := MustParse(`
		extract e:Entity, d:Str from input.txt if
		(/ROOT:{
			a = //verb,
			b = a/dobj,
			c = b//"delicious",
			d = (b.subtree)
		} (b) in (e))`)
	if len(q.Outputs) != 2 || q.Outputs[0] != (OutVar{"e", "Entity"}) || q.Outputs[1] != (OutVar{"d", "Str"}) {
		t.Fatalf("outputs = %v", q.Outputs)
	}
	if q.Source != "input.txt" {
		t.Errorf("source = %q", q.Source)
	}
	if len(q.Block) != 4 {
		t.Fatalf("block = %v", q.Block)
	}
	a := q.Block[0]
	if a.Name != "a" || len(a.Expr.Atoms) != 1 {
		t.Fatalf("a = %v", a)
	}
	if at := a.Expr.Atoms[0]; at.Kind != AtomPath || len(at.Steps) != 1 || !at.Steps[0].Desc || at.Steps[0].Label != "verb" {
		t.Errorf("a atom = %+v", at)
	}
	b := q.Block[1].Expr.Atoms[0]
	if b.Kind != AtomPath || b.From != "a" || b.Steps[0].Desc || b.Steps[0].Label != "dobj" {
		t.Errorf("b atom = %+v", b)
	}
	c := q.Block[2].Expr.Atoms[0]
	if c.Kind != AtomPath || c.From != "b" || !c.Steps[0].Desc {
		t.Errorf("c atom = %+v", c)
	}
	if len(c.Steps[0].Conds) != 1 || c.Steps[0].Conds[0] != (LabelCond{"text", "delicious"}) {
		t.Errorf("c conds = %v", c.Steps[0].Conds)
	}
	d := q.Block[3].Expr.Atoms[0]
	if d.Kind != AtomSubtree || d.Var != "b" {
		t.Errorf("d atom = %+v", d)
	}
	if len(q.Constraints) != 1 || q.Constraints[0].Op != OpIn {
		t.Fatalf("constraints = %v", q.Constraints)
	}
	if q.Constraints[0].Left.Atoms[0].Var != "b" || q.Constraints[0].Right.Atoms[0].Var != "e" {
		t.Errorf("constraint sides = %v", q.Constraints[0])
	}
}

// TestParseExample22 parses the similarTo queries Q1/Q2.
func TestParseExample22(t *testing.T) {
	q := MustParse(`
		extract a:GPE from "input.txt" if ()
		satisfying a
		(a SimilarTo "city" {1.0})`)
	if len(q.Satisfying) != 1 {
		t.Fatalf("satisfying = %v", q.Satisfying)
	}
	sc := q.Satisfying[0]
	if sc.Var != "a" || len(sc.Conds) != 1 {
		t.Fatalf("clause = %+v", sc)
	}
	c := sc.Conds[0]
	if c.Kind != CondSimilarTo || c.Arg != "city" || c.Weight != 1.0 {
		t.Errorf("cond = %+v", c)
	}
	if sc.Threshold != DefaultThreshold {
		t.Errorf("threshold = %v", sc.Threshold)
	}
}

// TestParseExample23 parses the cafe query with descriptors, threshold and
// excluding.
func TestParseExample23(t *testing.T) {
	q := MustParse(`
		extract x:Entity from "input.txt" if ()
		satisfying x
		(str(x) contains "Cafe" {1}) or
		(str(x) contains "Roasters" {1}) or
		(x ", a cafe" {1}) or
		(x [["serves coffee"]] {0.5}) or
		(x [["employs baristas"]] {0.5})
		with threshold 0.8
		excluding (str(x) matches "[Ll]a Marzocco")`)
	sc := q.Satisfying[0]
	if len(sc.Conds) != 5 {
		t.Fatalf("conds = %d", len(sc.Conds))
	}
	wantKinds := []SatKind{CondContains, CondContains, CondFollowedBy, CondDescRight, CondDescRight}
	wantWeights := []float64{1, 1, 1, 0.5, 0.5}
	for i, c := range sc.Conds {
		if c.Kind != wantKinds[i] || c.Weight != wantWeights[i] {
			t.Errorf("cond %d = %+v", i, c)
		}
	}
	if sc.Conds[2].Arg != ", a cafe" {
		t.Errorf("followed-by arg = %q", sc.Conds[2].Arg)
	}
	if sc.Conds[3].Arg != "serves coffee" {
		t.Errorf("descriptor arg = %q", sc.Conds[3].Arg)
	}
	if sc.Threshold != 0.8 {
		t.Errorf("threshold = %v", sc.Threshold)
	}
	if len(q.Excluding) != 1 || q.Excluding[0].Kind != CondMatches || q.Excluding[0].Arg != "[Ll]a Marzocco" {
		t.Errorf("excluding = %+v", q.Excluding)
	}
}

// TestParseExample41 parses the query with a horizontal condition.
func TestParseExample41(t *testing.T) {
	q := MustParse(`
		extract a:Str, b:Str, c:Str from input.txt if (
		/ROOT:{
			a = Entity, b = //verb[text="ate"],
			c = b/dobj, d = c//"delicious",
			e = a + ^ + b + ^ + c })`)
	if len(q.Block) != 5 {
		t.Fatalf("block = %d decls", len(q.Block))
	}
	// a = Entity is a bare label.
	a := q.Block[0].Expr.Atoms[0]
	if a.Kind != AtomPath || a.Steps[0].Label != "Entity" || !a.Steps[0].Bare() {
		t.Errorf("a = %+v", a)
	}
	b := q.Block[1].Expr.Atoms[0]
	if len(b.Steps[0].Conds) != 1 || b.Steps[0].Conds[0] != (LabelCond{"text", "ate"}) {
		t.Errorf("b = %+v", b)
	}
	e := q.Block[4].Expr
	if len(e.Atoms) != 5 {
		t.Fatalf("e atoms = %d", len(e.Atoms))
	}
	kinds := []AtomKind{AtomVar, AtomElastic, AtomVar, AtomElastic, AtomVar}
	for i, at := range e.Atoms {
		if at.Kind != kinds[i] {
			t.Errorf("e atom %d kind = %v, want %v", i, at.Kind, kinds[i])
		}
	}
}

// TestParseScaleQueries parses the three §6.3 queries.
func TestParseScaleQueries(t *testing.T) {
	choc := MustParse(`
		extract c:Entity from wiki.article if (
		/ROOT:{
			v = //verb, o = v//pobj[text="chocolate"],
			s = v/nsubj } (s) in (c))
		satisfying v
		(str(v) ~ "is" {1})`)
	if choc.Source != "wiki.article" {
		t.Errorf("source = %q", choc.Source)
	}
	if choc.Satisfying[0].Conds[0].Kind != CondSimilarTo {
		t.Errorf("~ not parsed as similarTo: %+v", choc.Satisfying[0].Conds[0])
	}

	title := MustParse(`
		extract a:Person, b:Str from wiki.article if (
		/ROOT:{
			v = //"called", p = v/propn, b = p.subtree,
			c = a + ^ + v + ^ + b})`)
	v := title.Block[0].Expr.Atoms[0]
	if v.Kind != AtomPath || v.Steps[0].Conds[0] != (LabelCond{"text", "called"}) {
		t.Errorf("v = %+v", v)
	}
	if title.Block[2].Expr.Atoms[0].Kind != AtomSubtree {
		t.Errorf("b = %+v", title.Block[2].Expr.Atoms[0])
	}

	dob := MustParse(`
		extract a:Person, b:Date from wiki.article if (
		/ROOT:{v = verb})
		satisfying v
		(str(v) ~ "born" {1})`)
	if dob.Block[0].Expr.Atoms[0].Steps[0].Label != "verb" {
		t.Errorf("v = %+v", dob.Block[0].Expr.Atoms[0])
	}
	if dob.Satisfying[0].Threshold != DefaultThreshold {
		t.Errorf("default threshold = %v", dob.Satisfying[0].Threshold)
	}
}

// TestParseFig9Fragment parses representative lines of the appendix cafe
// query: preceded-by, near, descriptor-left, dict excluding.
func TestParseFig9Fragment(t *testing.T) {
	q := MustParse(`
		extract x:Entity from "blogs.txt" if ()
		satisfying x
		(str(x) contains "Cafe" {1}) or
		("cafe called" x {1}) or
		(x near ", a cafe" {1}) or
		(x [["sells coffee"]] {0.02}) or
		([["coffee from"]] x {0.015}) or
		(x [["pour-over"]] {0.015})
		with threshold 0.6
		excluding
		(str(x) matches "[a-z 0-9.]+") or
		(str(x) matches "[0-9]+ [0-9A-Z a-z]+ [Ss]treet") or
		(str(x) in dict("Location"))`)
	sc := q.Satisfying[0]
	kinds := []SatKind{CondContains, CondPrecededBy, CondNear, CondDescRight, CondDescLeft, CondDescRight}
	for i, c := range sc.Conds {
		if c.Kind != kinds[i] {
			t.Errorf("cond %d kind = %v, want %v (%+v)", i, c.Kind, kinds[i], c)
		}
	}
	if sc.Conds[1].Arg != "cafe called" || sc.Conds[1].Var != "x" {
		t.Errorf("preceded-by = %+v", sc.Conds[1])
	}
	if sc.Conds[4].Arg != "coffee from" {
		t.Errorf("desc-left = %+v", sc.Conds[4])
	}
	if len(q.Excluding) != 3 {
		t.Fatalf("excluding = %d", len(q.Excluding))
	}
	if q.Excluding[2].Kind != CondInDict || q.Excluding[2].Arg != "Location" {
		t.Errorf("dict excluding = %+v", q.Excluding[2])
	}
}

// TestParseWNUTQueries parses the appendix A.2 queries (Figures 10 and 11).
func TestParseWNUTQueries(t *testing.T) {
	fac := MustParse(`
		extract x:Entity from "tweets.txt" if ()
		satisfying x
		("at" x {1}) or
		([["went to"]] x {0.8}) or
		([["go to"]] x {0.8})
		with threshold 0.6
		excluding
		(str(x) contains "p.m.") or
		(str(x) mentions "@") or
		(str(x) contains "today")`)
	if len(fac.Satisfying[0].Conds) != 3 || len(fac.Excluding) != 3 {
		t.Errorf("facility query: %d conds, %d excluding", len(fac.Satisfying[0].Conds), len(fac.Excluding))
	}
	if fac.Excluding[1].Kind != CondMentions {
		t.Errorf("mentions = %+v", fac.Excluding[1])
	}

	team := MustParse(`
		extract x:Entity from "tweets.txt" if ()
		satisfying x
		(x [["to host"]] {0.9}) or
		(x "vs" {0.9}) or
		("vs" x {0.9}) or
		(x [["soccer"]] {0.9}) or
		("go" x {0.9})
		with threshold 0.6`)
	if len(team.Satisfying[0].Conds) != 5 {
		t.Errorf("team query conds = %d", len(team.Satisfying[0].Conds))
	}
}

// TestParseCurlyQuotesAndUnicode accepts the paper's typography.
func TestParseCurlyQuotesAndUnicode(t *testing.T) {
	q := MustParse("extract e:Entity from input.txt if (/ROOT:{ c = //“delicious”, d = ^ })")
	c := q.Block[0].Expr.Atoms[0]
	if c.Kind != AtomPath || c.Steps[0].Conds[0].Value != "delicious" {
		t.Errorf("curly-quoted token = %+v", c)
	}
	if q.Block[1].Expr.Atoms[0].Kind != AtomElastic {
		t.Errorf("elastic = %+v", q.Block[1].Expr.Atoms[0])
	}
	// The unicode ∧ and ∼ also lex.
	q2 := MustParse("extract a:Str from f.txt if (/ROOT:{ v = //verb, s = v + ∧ + v }) satisfying v (str(v) ∼ \"is\" {1})")
	if q2.Block[1].Expr.Atoms[1].Kind != AtomElastic {
		t.Errorf("unicode wedge = %+v", q2.Block[1].Expr.Atoms[1])
	}
	if q2.Satisfying[0].Conds[0].Kind != CondSimilarTo {
		t.Errorf("unicode sim = %+v", q2.Satisfying[0].Conds[0])
	}
}

func TestParseElasticConds(t *testing.T) {
	q := MustParse(`extract x:Str from f.txt if (/ROOT:{
		v = //verb,
		x = v + ^[etype="Entity"] + ^[min=1, max=3] + ^[regex="a.*"]
	})`)
	atoms := q.Block[1].Expr.Atoms
	if atoms[1].Conds[0] != (LabelCond{"etype", "Entity"}) {
		t.Errorf("etype cond = %+v", atoms[1].Conds)
	}
	if atoms[2].Conds[0] != (LabelCond{"min", "1"}) || atoms[2].Conds[1] != (LabelCond{"max", "3"}) {
		t.Errorf("min/max = %+v", atoms[2].Conds)
	}
	if atoms[3].Conds[0].Key != "regex" {
		t.Errorf("regex = %+v", atoms[3].Conds)
	}
}

func TestParsePosConditionEquivalence(t *testing.T) {
	// /root//noun == /root//*[@pos="noun"] per §2.1.
	q1 := MustParse(`extract x:Str from f.txt if (/ROOT:{ x = /root//*[@pos="noun"] })`)
	st := q1.Block[0].Expr.Atoms[0].Steps[1]
	if st.Label != "*" || st.Conds[0] != (LabelCond{"pos", "noun"}) {
		t.Errorf("pos condition = %+v", st)
	}
	// Multiple conditions separated by comma.
	q2 := MustParse(`extract x:Str from f.txt if (/ROOT:{ x = //*[@pos="noun", etype="Person"] })`)
	conds := q2.Block[0].Expr.Atoms[0].Steps[0].Conds
	if len(conds) != 2 || conds[1] != (LabelCond{"etype", "Person"}) {
		t.Errorf("multi conds = %+v", conds)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"select x from y",
		"extract x from f.txt if ()",       // missing type
		"extract x:Entity from f.txt",      // missing if
		"extract x:Entity from f.txt if (", // unclosed
		"extract x:Entity from f.txt if () satisfying x", // no conditions
		`extract x:Entity from f.txt if () satisfying x (str(x) frobs "y" {1})`,
		`extract x:Entity from f.txt if () satisfying x (x [["d"]] {2})`,    // weight > 1
		`extract x:Entity from f.txt if (/ROOT:{ a = b/dobj })`,             // undefined anchor
		`extract x:Entity from f.txt if (/ROOT:{ a = //verb, a = a/dobj })`, // redeclared variable
		`extract x:Entity from f.txt if () trailing`,
		`extract x:Entity from "unterminated if ()`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestQueryStringRoundtrip(t *testing.T) {
	src := `extract e:Entity, d:Str from input.txt if (/ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) } (b) in (e)) satisfying e (str(e) contains "Cafe" {1}) with threshold 0.8`
	q := MustParse(src)
	printed := q.String()
	q2, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse of %q: %v", printed, err)
	}
	if q2.String() != printed {
		t.Errorf("not a fixpoint:\n%s\n%s", printed, q2.String())
	}
	if !strings.Contains(printed, "satisfying e") {
		t.Errorf("printed = %s", printed)
	}
}
