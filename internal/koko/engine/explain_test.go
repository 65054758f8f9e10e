package engine

import (
	"testing"

	"repro/internal/embed"
	"repro/internal/koko/index"
	"repro/internal/koko/lang"
)

// TestExplainEvidence: Options.Explain attaches per-condition breakdowns
// whose contributions sum to the clause score.
func TestExplainEvidence(t *testing.T) {
	doc := "Gravity Beans serves smooth espresso daily. Gravity Beans hired a champion barista."
	c := index.NewCorpus(nil, []string{doc})
	ix := index.Build(c)
	e := New(c, ix, embed.NewModel(), Options{Explain: true})
	q := lang.MustParse(`
		extract x:Entity from "blog" if ()
		satisfying x
		(str(x) contains "Cafe" {1}) or
		(x [["serves coffee"]] {0.5}) or
		(x [["employs baristas"]] {0.5})
		with threshold 0.3`)
	res, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, tp := range res.Tuples {
		if tp.Values[0] != "Gravity Beans" {
			continue
		}
		found = true
		if len(tp.Evidence) != 3 {
			t.Fatalf("evidence rows = %d, want 3: %+v", len(tp.Evidence), tp.Evidence)
		}
		var sum float64
		for _, ev := range tp.Evidence {
			sum += ev.Contribution
			if ev.Contribution != ev.Weight*ev.Confidence {
				t.Errorf("contribution %v != weight %v * confidence %v", ev.Contribution, ev.Weight, ev.Confidence)
			}
			if ev.Condition == "" || ev.Variable != "x" {
				t.Errorf("bad evidence row: %+v", ev)
			}
		}
		if diff := sum - tp.Scores["x"]; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("evidence sum %v != score %v", sum, tp.Scores["x"])
		}
		// The contains condition contributed nothing; the descriptors did.
		if tp.Evidence[0].Confidence != 0 {
			t.Errorf("contains 'Cafe' confidence = %v, want 0", tp.Evidence[0].Confidence)
		}
		if tp.Evidence[1].Contribution == 0 && tp.Evidence[2].Contribution == 0 {
			t.Errorf("no descriptor evidence: %+v", tp.Evidence)
		}
	}
	if !found {
		t.Fatalf("Gravity Beans not extracted: %v", res.Tuples)
	}
	// Without Explain, no evidence is attached.
	e2 := New(c, ix, embed.NewModel(), Options{})
	res2, err := e2.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range res2.Tuples {
		if tp.Evidence != nil {
			t.Errorf("evidence attached without Explain: %+v", tp.Evidence)
		}
	}
}
