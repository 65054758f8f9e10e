package engine

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/koko/lang"
	"repro/internal/nlp"
)

// pathCaseBytes reads a fuzz input as a stream of choices; an exhausted
// stream reads as zeros.
type pathCaseBytes []byte

func (b *pathCaseBytes) next(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

func pick[T any](b *pathCaseBytes, xs []T) T { return xs[b.next(len(xs))] }

// Small inventories, so that random steps and random tokens meet often.
var (
	fuzzWords  = []string{"I", "ate", "cake", "Cafe", "delicious", ".", "Paris"}
	fuzzPOS    = []string{nlp.PosVerb, nlp.PosNoun, nlp.PosAdj, nlp.PosPunct, nlp.PosPropn}
	fuzzLabels = []string{nlp.LblRoot, nlp.LblNsubj, nlp.LblDobj, nlp.LblAmod, nlp.LblP, nlp.LblConj}
	fuzzETypes = []string{"", nlp.EntPerson, nlp.EntLocation, nlp.EntOrg}
	// Step labels of every class: wildcard, parse label (aliases included),
	// POS tag, word, and entity type.
	fuzzStepLabels = []string{"*", "", "ROOT", "dobj", "punct", "nsubj", "VERB", "noun", "adj",
		"cake", "Delicious", "Person", "GPE", "Entity", "Organization"}
	fuzzConds = []lang.LabelCond{
		{Key: "text", Value: "Cake"}, {Key: "text", Value: "ate"},
		{Key: "regex", Value: "[Cc].*"}, {Key: "regex", Value: "[a-z]+"},
		{Key: "etype", Value: "gpe"}, {Key: "etype", Value: "person"}, {Key: "etype", Value: "Entity"},
		{Key: "pos", Value: "NOUN"}, {Key: "pos", Value: "verb"},
	}
)

// pathCaseFromBytes decodes a sentence of 1-12 tokens with arbitrary heads
// (repaired by RecomputeDerived: cycles broken, extra roots reattached) and
// optional single-token entities, then a path of 1-4 steps mixing "/" and
// "//", every label class and 0-2 bracket conditions.
func pathCaseFromBytes(data []byte) (*nlp.Sentence, []lang.PathStep) {
	b := pathCaseBytes(data)
	n := 1 + b.next(12)
	s := &nlp.Sentence{Tokens: make([]nlp.Token, n)}
	for i := range s.Tokens {
		w := pick(&b, fuzzWords)
		s.Tokens[i] = nlp.Token{
			ID: i, Text: w, Lower: strings.ToLower(w),
			POS: pick(&b, fuzzPOS), Label: pick(&b, fuzzLabels),
			Head: b.next(n+1) - 1, EntityID: -1,
		}
		if et := pick(&b, fuzzETypes); et != "" {
			s.Tokens[i].EntityID = len(s.Entities)
			s.Entities = append(s.Entities, nlp.Entity{Type: et, L: i, R: i, Text: w})
		}
	}
	s.RecomputeDerived()
	steps := make([]lang.PathStep, 1+b.next(4))
	for i := range steps {
		steps[i] = lang.PathStep{Desc: b.next(2) == 1, Label: pick(&b, fuzzStepLabels)}
		for k := b.next(3); k > 0; k-- {
			steps[i].Conds = append(steps[i].Conds, pick(&b, fuzzConds))
		}
	}
	return s, steps
}

// FuzzMatchPath: the bottom-up matcher accepts exactly the tokens the
// frozen seed matcher (refMatchPathTokens, a top-down walk from the root)
// does, on any tree and any path.
func FuzzMatchPath(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, steps := pathCaseFromBytes(data)
		want := refMatchPathTokens(s, steps, newRECache())
		if got := MatchPath(s, steps); !reflect.DeepEqual(got, want) {
			t.Fatalf("MatchPath = %v, seed matcher %v\nsteps %+v\nheads %v (data %x)",
				got, want, steps, heads(s), data)
		}
	})
}

func heads(s *nlp.Sentence) []int {
	out := make([]int, len(s.Tokens))
	for i := range s.Tokens {
		out[i] = s.Tokens[i].Head
	}
	return out
}

// TestMatchPathDeepChainIsLinear: on a 20 000-token chain under a verb root,
// `//verb//*` matches every other token. Climbing to the root from each
// token would be quadratic (seconds); the memoized ancestor search keeps the
// match O(tokens × steps).
func TestMatchPathDeepChainIsLinear(t *testing.T) {
	const n = 20000
	s := &nlp.Sentence{Tokens: make([]nlp.Token, n)}
	for i := range s.Tokens {
		s.Tokens[i] = nlp.Token{ID: i, Text: "x", Lower: "x", POS: nlp.PosNoun, Label: nlp.LblDep, Head: i - 1, EntityID: -1}
	}
	s.Tokens[0].POS, s.Tokens[0].Label = nlp.PosVerb, nlp.LblRoot
	s.RecomputeDerived()
	steps := []lang.PathStep{{Desc: true, Label: "verb"}, {Desc: true, Label: "*"}} // //verb//*
	start := time.Now()
	got := MatchPath(s, steps)
	if el := time.Since(start); el > 250*time.Millisecond {
		t.Errorf("MatchPath over a %d-token chain took %v, want well under 1 s", n, el)
	}
	if len(got) != n-1 || got[0] != 1 || got[n-2] != n-1 {
		t.Errorf("MatchPath matched %d tokens, want tokens 1..%d", len(got), n-1)
	}
}
