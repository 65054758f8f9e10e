package koko

import (
	"path/filepath"
	"reflect"
	"testing"
)

func TestPublicAPIQuickstart(t *testing.T) {
	c := NewCorpus(nil, []string{
		"I ate a chocolate ice cream, which was delicious, and also ate a pie.",
	})
	if c.NumDocuments() != 1 || c.NumSentences() != 1 {
		t.Fatalf("docs=%d sents=%d", c.NumDocuments(), c.NumSentences())
	}
	eng := NewEngine(c, nil)
	res, err := eng.Query(`
		extract e:Entity, d:Str from input.txt if
		(/ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) } (b) in (e))`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 1 || res.Tuples[0].Values[0] != "chocolate ice cream" {
		t.Fatalf("tuples = %v", res.Tuples)
	}
	if res.Candidates == 0 || res.Matched == 0 {
		t.Errorf("pruning stats: %+v", res)
	}
	st := eng.Stats()
	if st.Words == 0 || st.PLNodes == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPublicAPIOptions(t *testing.T) {
	c := NewCorpus(nil, []string{"La Marzocco serves espresso. Blue Fox Cafe serves espresso."})
	eng := NewEngine(c, &Options{
		Dicts:    map[string][]string{"Brands": {"La Marzocco"}},
		Ontology: map[string][]string{"coffee": {"gibraltar"}},
	})
	res, err := eng.Query(`
		extract x:Entity from "c" if ()
		satisfying x (str(x) contains "Cafe" {1}) with threshold 0.5
		excluding (str(x) in dict("Brands"))`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range res.Tuples {
		if tp.Values[0] == "La Marzocco" {
			t.Errorf("dict exclusion ignored: %v", tp)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := Validate(`extract x:Entity from f if ()`); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
	if err := Validate(`select * from t`); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	texts := []string{
		"Anna ate some delicious cheesecake that she bought at a grocery store.",
		"I ate a chocolate ice cream, which was delicious, and also ate a pie.",
	}
	eng := NewEngine(NewCorpus(nil, texts), nil)
	path := filepath.Join(t.TempDir(), "corpus.koko")
	if err := eng.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := `extract x:Str from f if (/ROOT:{ x = //verb/dobj })`
	r1, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := got.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	v1 := map[string]bool{}
	v2 := map[string]bool{}
	for _, tp := range r1.Tuples {
		v1[tp.Values[0]] = true
	}
	for _, tp := range r2.Tuples {
		v2[tp.Values[0]] = true
	}
	if !reflect.DeepEqual(v1, v2) {
		t.Errorf("reloaded engine differs: %v vs %v", v1, v2)
	}
}
