package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/embed"
	"repro/internal/koko/index"
	"repro/internal/koko/lang"
)

func engineOver(texts []string, opts Options) *Engine {
	c := index.NewCorpus(nil, texts)
	ix := index.Build(c)
	return New(c, ix, embed.NewModel(), opts)
}

func tupleSet(res *Result) map[string]bool {
	out := map[string]bool{}
	for _, t := range res.Tuples {
		out[fmt.Sprintf("%d|%v", t.SentenceID, t.Values)] = true
	}
	return out
}

// TestExample21EndToEnd pins the paper's Example 2.1: on the Figure 1
// sentence the query returns exactly one tuple,
// (e, d) = ("chocolate ice cream", "a chocolate ice cream , which was delicious").
func TestExample21EndToEnd(t *testing.T) {
	e := engineOver([]string{
		"I ate a chocolate ice cream, which was delicious, and also ate a pie.",
	}, Options{})
	q := lang.MustParse(`
		extract e:Entity, d:Str from input.txt if
		(/ROOT:{
			a = //verb,
			b = a/dobj,
			c = b//"delicious",
			d = (b.subtree)
		} (b) in (e))`)
	res, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 1 {
		t.Fatalf("got %d tuples: %v", len(res.Tuples), res.Tuples)
	}
	got := res.Tuples[0]
	if got.Values[0] != "chocolate ice cream" {
		t.Errorf("e = %q", got.Values[0])
	}
	if got.Values[1] != "a chocolate ice cream, which was delicious" {
		t.Errorf("d = %q", got.Values[1])
	}
	// The paper's stated unique bindings: a="ate", b="cream", c="delicious".
	// Sanity: the second verb "ate" must NOT produce a tuple (its dobj "pie"
	// has no "delicious" beneath it).
	naive, err := e.RunNaive(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tupleSet(res), tupleSet(naive)) {
		t.Errorf("indexed and naive runs disagree: %v vs %v", res.Tuples, naive.Tuples)
	}
}

// TestExample22EndToEnd reproduces the paper's Example 2.2 score table:
// Q1 (similarTo "city") returns Tokyo and Beijing on S2 and nothing on S1;
// Q2 (similarTo "country") returns China and Japan on S1 and nothing on S2.
func TestExample22EndToEnd(t *testing.T) {
	e := engineOver([]string{
		"cities in asian countries such as China and Japan.",
		"cities in asian countries such as Beijing and Tokyo.",
	}, Options{})
	q1 := lang.MustParse(`extract a:GPE from "input.txt" if () satisfying a (a SimilarTo "city" {1.0})`)
	q2 := lang.MustParse(`extract a:GPE from "input.txt" if () satisfying a (a SimilarTo "country" {1.0})`)

	r1, err := e.Run(q1)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for _, tp := range r1.Tuples {
		if tp.SentenceID != 1 {
			t.Errorf("Q1 matched S1: %v", tp)
		}
		vals[tp.Values[0]] = tp.Scores["a"]
	}
	if len(vals) != 2 || vals["Tokyo"] == 0 || vals["Beijing"] == 0 {
		t.Fatalf("Q1 results = %v, want Tokyo and Beijing", vals)
	}
	// Paper band: ≈0.36–0.41; ours must land in a comparable band.
	for name, s := range vals {
		if s < 0.3 || s > 0.65 {
			t.Errorf("Q1 score for %s = %.3f, want in [0.3, 0.65]", name, s)
		}
	}

	r2, err := e.Run(q2)
	if err != nil {
		t.Fatal(err)
	}
	vals2 := map[string]float64{}
	for _, tp := range r2.Tuples {
		if tp.SentenceID != 0 {
			t.Errorf("Q2 matched S2: %v", tp)
		}
		vals2[tp.Values[0]] = tp.Scores["a"]
	}
	if len(vals2) != 2 || vals2["China"] == 0 || vals2["Japan"] == 0 {
		t.Fatalf("Q2 results = %v, want China and Japan", vals2)
	}
}

// TestExample23Style checks weighted-evidence aggregation: an entity whose
// evidence is spread across the document passes the threshold only by
// aggregation.
func TestExample23Style(t *testing.T) {
	doc := "Gravity Beans opened downtown last week. " +
		"The owners say Gravity Beans serves great espresso every morning. " +
		"Gravity Beans recently hired a star barista from Portland."
	e := engineOver([]string{doc}, Options{})
	q := lang.MustParse(`
		extract x:Entity from "input.txt" if ()
		satisfying x
		(str(x) contains "Cafe" {1}) or
		(x [["serves coffee"]] {0.5}) or
		(x [["employs baristas"]] {0.5})
		with threshold 0.5
		excluding (str(x) matches "[Ll]a Marzocco")`)
	res, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, tp := range res.Tuples {
		found[tp.Values[0]] = true
	}
	if !found["Gravity Beans"] {
		t.Errorf("Gravity Beans not extracted: %v", res.Tuples)
	}
	// Portland has no supporting evidence and must not pass.
	if found["Portland"] {
		t.Errorf("Portland wrongly extracted")
	}

	// The same query with threshold 1.5 (unreachable by the two 0.5-weight
	// descriptors plus nothing else) must return nothing for Gravity Beans.
	q2 := lang.MustParse(`
		extract x:Entity from "input.txt" if ()
		satisfying x
		(x [["serves coffee"]] {0.5}) or
		(x [["employs baristas"]] {0.5})
		with threshold 1.0`)
	res2, err := e.Run(q2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range res2.Tuples {
		if tp.Values[0] == "Portland" {
			t.Errorf("Portland passed threshold 1.0: %v", tp)
		}
	}
}

// TestExcluding checks excluding-clause filtering.
func TestExcluding(t *testing.T) {
	doc := "La Marzocco serves espresso. Blue Fox Cafe serves espresso."
	e := engineOver([]string{doc}, Options{
		Dicts: map[string]map[string]bool{
			"Location": {"portland": true},
		},
	})
	q := lang.MustParse(`
		extract x:Entity from "input.txt" if ()
		satisfying x
		(str(x) contains "Cafe" {1}) or
		(x [["serves coffee"]] {0.6})
		with threshold 0.3
		excluding (str(x) matches "[Ll]a Marzocco") or (str(x) in dict("Location"))`)
	res, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range res.Tuples {
		if tp.Values[0] == "La Marzocco" {
			t.Errorf("excluded entity returned: %v", tp)
		}
	}
	found := false
	for _, tp := range res.Tuples {
		if tp.Values[0] == "Blue Fox Cafe" {
			found = true
		}
	}
	if !found {
		t.Errorf("Blue Fox Cafe missing: %v", res.Tuples)
	}
}

// TestHorizontalConditionGSP checks Example 4.1-style span assembly and that
// GSP and NOGSP agree.
func TestHorizontalConditionGSP(t *testing.T) {
	texts := []string{
		"Anna ate some delicious cheesecake that she bought at a grocery store.",
		"I ate a chocolate ice cream, which was delicious, and also ate a pie.",
		"The barista poured espresso.",
	}
	q := lang.MustParse(`
		extract e:Str from input.txt if (
		/ROOT:{
			a = Entity, b = //verb[text="ate"],
			c = b/dobj, d = c//"delicious",
			e = a + ^ + b + ^ + c })`)
	gsp := engineOver(texts, Options{})
	nogsp := engineOver(texts, Options{DisableSkipPlan: true})
	r1, err := gsp.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := nogsp.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tupleSet(r1), tupleSet(r2)) {
		t.Fatalf("GSP/NOGSP disagree:\n%v\n%v", r1.Tuples, r2.Tuples)
	}
	// Sentence 0: a=Anna(0), b=ate(1), c=cheesecake(4): e spans 0..4.
	want := "Anna ate some delicious cheesecake"
	found := false
	for _, tp := range r1.Tuples {
		if tp.Values[0] == want {
			found = true
		}
	}
	if !found {
		t.Errorf("missing %q in %v", want, r1.Tuples)
	}
}

// TestPhaseTimesAttribution: on a satisfying query the per-sentence clock
// reads attribute time to each of GSP, extract and satisfying, and with the
// skip plan disabled no time at all to GSP; both runs emit the same tuples.
func TestPhaseTimesAttribution(t *testing.T) {
	c := benchHappyDB(benchCorpusSents, benchCorpusSeed)
	ix := index.Build(c)
	q := lang.MustParse(benchSatisfyingQuery)
	gsp, err := New(c, ix, embed.NewModel(), Options{}).Run(q)
	if err != nil {
		t.Fatal(err)
	}
	nogsp, err := New(c, ix, embed.NewModel(), Options{DisableSkipPlan: true}).Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(gsp.Tuples) == 0 || !reflect.DeepEqual(gsp.Tuples, nogsp.Tuples) {
		t.Fatalf("%d tuples with the skip plan, %d without; want the same non-empty set", len(gsp.Tuples), len(nogsp.Tuples))
	}
	if pt := gsp.Times; pt.GSP <= 0 || pt.Extract <= 0 || pt.Satisfying <= 0 {
		t.Errorf("skip plan on: GSP %v, extract %v, satisfying %v; want each > 0", pt.GSP, pt.Extract, pt.Satisfying)
	}
	if pt := nogsp.Times; pt.GSP != 0 || pt.Extract <= 0 || pt.Satisfying <= 0 {
		t.Errorf("skip plan off: GSP %v, extract %v, satisfying %v; want 0, > 0, > 0", pt.GSP, pt.Extract, pt.Satisfying)
	}
}

// TestFollowedByAndNear checks the boolean adjacency and proximity
// conditions.
func TestFollowedByAndNear(t *testing.T) {
	doc := "Cafe Benz serves great coffee. We met at Ritual Roasters, a cafe in Portland."
	e := engineOver([]string{doc}, Options{})
	q := lang.MustParse(`
		extract x:Entity from "input.txt" if ()
		satisfying x
		(x ", a cafe" {1}) or
		(x near "coffee" {0.8})
		with threshold 0.2`)
	res, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	scores := map[string]float64{}
	for _, tp := range res.Tuples {
		scores[tp.Values[0]] = tp.Scores["x"]
	}
	if scores["Ritual Roasters"] < 1 {
		t.Errorf("Ritual Roasters score = %v (followed-by should give 1)", scores["Ritual Roasters"])
	}
	// "Cafe Benz serves great coffee": distance from mention to "coffee" is
	// 2 tokens => near = 1/3, weighted 0.8 => ≈0.267.
	got := scores["Cafe Benz"]
	if got < 0.2 || got > 0.4 {
		t.Errorf("Cafe Benz score = %v, want ≈0.267", got)
	}
}

// TestDPLIPrunesAndAgreesWithNaive is the soundness/completeness property:
// on a mixed corpus, Run (index-pruned) and RunNaive (full scan) return the
// same tuple bags for a suite of queries, and DPLI candidates are a superset
// of matching sentences.
func TestDPLIPrunesAndAgreesWithNaive(t *testing.T) {
	texts := []string{
		"Anna ate some delicious cheesecake that she bought at a grocery store.",
		"I ate a chocolate ice cream, which was delicious, and also ate a pie.",
		"The new cafe serves great espresso and employs three baristas.",
		"Baking chocolate is a type of chocolate that is prepared for baking.",
		"Cyd Charisse had been called Sid for years.",
		"The couple had a daughter Vera Alys born in 1911.",
		"cities in asian countries such as China and Japan.",
		"Portland hosts a coffee festival every spring.",
		"She bought bread at the bakery near the park.",
	}
	queries := []string{
		`extract e:Entity, d:Str from f if (/ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) } (b) in (e))`,
		`extract x:Str from f if (/ROOT:{ x = //verb/dobj })`,
		`extract x:Str from f if (/ROOT:{ x = /root/nsubj })`,
		`extract x:Str from f if (/ROOT:{ v = //verb[text="ate"], x = v/dobj })`,
		`extract x:Str from f if (/ROOT:{ x = //*[@pos="propn"] })`,
		`extract x:Str from f if (/ROOT:{ v = //"bought", x = v//pobj })`,
		`extract a:Person, b:Date from f if (/ROOT:{v = verb})`,
		`extract x:Str from f if (/ROOT:{ a = Entity, b = //verb, x = a + ^ + b })`,
		`extract x:Str from f if (/ROOT:{ x = //rcmod//pobj })`,
		`extract x:Str from f if (/ROOT:{ x = //conj/dobj })`,
	}
	e := engineOver(texts, Options{})
	for _, src := range queries {
		q := lang.MustParse(src)
		run, err := e.Run(q)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		naive, err := e.RunNaive(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tupleSet(run), tupleSet(naive)) {
			t.Errorf("query %s:\nindexed %v\nnaive   %v", src, run.Tuples, naive.Tuples)
		}
		// Candidates ⊇ matching sentences (completeness of DPLI).
		cands, err := e.Candidates(q)
		if err != nil {
			t.Fatal(err)
		}
		candSet := map[int32]bool{}
		for _, s := range cands {
			candSet[s] = true
		}
		for _, tp := range naive.Tuples {
			if !candSet[int32(tp.SentenceID)] {
				t.Errorf("query %s: matching sentence %d pruned by DPLI", src, tp.SentenceID)
			}
		}
	}
}

// TestGSPNOGSPEquivalenceRandom: random span queries over a generated
// corpus must give identical results with and without the skip plan.
func TestGSPNOGSPEquivalenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	verbs := []string{"ate", "bought", "serves", "visited"}
	nouns := []string{"cheesecake", "espresso", "pie", "coffee", "bread"}
	names := []string{"Anna", "Sarah", "David"}
	var texts []string
	for i := 0; i < 30; i++ {
		texts = append(texts, fmt.Sprintf("%s %s some delicious %s at the %s.",
			names[r.Intn(len(names))], verbs[r.Intn(len(verbs))],
			nouns[r.Intn(len(nouns))], []string{"cafe", "store", "market"}[r.Intn(3)]))
	}
	queries := []string{
		`extract x:Str from f if (/ROOT:{ v = //verb, o = v/dobj, x = v + ^ + o })`,
		`extract x:Str from f if (/ROOT:{ a = Entity, v = //verb, o = //"delicious", x = a + ^ + v + ^ + o })`,
		`extract x:Str from f if (/ROOT:{ v = //verb, w = "delicious", x = v + ^ + w })`,
	}
	gsp := engineOver(texts, Options{})
	nogsp := engineOver(texts, Options{DisableSkipPlan: true})
	for _, src := range queries {
		q := lang.MustParse(src)
		r1, err := gsp.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := nogsp.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tupleSet(r1), tupleSet(r2)) {
			t.Errorf("query %s: GSP %d tuples, NOGSP %d tuples", src, len(r1.Tuples), len(r2.Tuples))
		}
	}
}

// TestScaleQueriesEndToEnd runs the three §6.3 queries over a handful of
// Wikipedia-style sentences.
func TestScaleQueriesEndToEnd(t *testing.T) {
	texts := []string{
		"Baking chocolate is a type of chocolate that is prepared for baking.",
		"Cyd Charisse had been called Sid for years.",
		"He was married to Alys Thomas in London, and the couple had a daughter Vera Alys born in 1911.",
	}
	e := engineOver(texts, Options{})

	choc := lang.MustParse(`
		extract c:Entity from wiki.article if (
		/ROOT:{ v = //verb, o = v//pobj[text="chocolate"], s = v/nsubj } (s) in (c))
		satisfying v (str(v) ~ "is" {1})`)
	r, err := e.Run(choc)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tp := range r.Tuples {
		if tp.Values[0] == "Baking chocolate" || tp.Values[0] == "chocolate" {
			found = true
		}
	}
	if !found {
		t.Errorf("Chocolate query: %v", r.Tuples)
	}

	title := lang.MustParse(`
		extract a:Person, b:Str from wiki.article if (
		/ROOT:{ v = //"called", p = v/propn, b = p.subtree, c = a + ^ + v + ^ + b })`)
	r, err = e.Run(title)
	if err != nil {
		t.Fatal(err)
	}
	found = false
	for _, tp := range r.Tuples {
		if tp.Values[0] == "Cyd Charisse" && tp.Values[1] == "Sid" {
			found = true
		}
	}
	if !found {
		t.Errorf("Title query: %v", r.Tuples)
	}

	dob := lang.MustParse(`
		extract a:Person, b:Date from wiki.article if (/ROOT:{v = verb})
		satisfying v (str(v) ~ "born" {1})`)
	r, err = e.Run(dob)
	if err != nil {
		t.Fatal(err)
	}
	found = false
	for _, tp := range r.Tuples {
		if tp.Values[1] == "1911" {
			found = true
		}
	}
	if !found {
		t.Errorf("DateOfBirth query: %v", r.Tuples)
	}
}

// TestEmptyAndExhausted covers degenerate cases.
func TestEmptyAndExhausted(t *testing.T) {
	e := engineOver([]string{"Anna ate cheesecake."}, Options{})
	// A word absent from the corpus: DPLI must cease immediately.
	q := lang.MustParse(`extract x:Str from f if (/ROOT:{ x = //"zyzzyva" })`)
	res, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 0 || res.CandidateSentences != 0 {
		t.Errorf("exhausted query returned %v", res)
	}
	// Undefined variable in satisfying: error.
	if _, err := e.Run(lang.MustParse(`extract x:Entity from f if () satisfying y (str(y) contains "a" {1})`)); err == nil {
		t.Error("undefined satisfying variable accepted")
	}
}
