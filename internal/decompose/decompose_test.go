package decompose

import (
	"testing"

	"repro/internal/koko/index"
	"repro/internal/nlp"
)

// decomposeParsed decomposes a parsed sentence through its columns.
func decomposeParsed(s *nlp.Sentence) []Clause {
	v := index.SentOf(s)
	return Decompose(&v)
}

func clauseWords(cs []Clause) [][]string {
	out := make([][]string, len(cs))
	for i, c := range cs {
		out[i] = c.Words
	}
	return out
}

func TestDecomposeSimple(t *testing.T) {
	s := nlp.AnnotateSentence(0, "Anna ate some delicious cheesecake.")
	cs := decomposeParsed(&s)
	if len(cs) != 1 {
		t.Fatalf("got %d clauses, want 1: %v", len(cs), clauseWords(cs))
	}
	if cs[0].Score != 1.0 {
		t.Errorf("main clause score = %v", cs[0].Score)
	}
	if !cs[0].ContainsSequence([]string{"anna", "ate", "cheesecake"}) {
		t.Errorf("clause words = %v", cs[0].Words)
	}
}

func TestDecomposeRelativeClause(t *testing.T) {
	s := nlp.AnnotateSentence(0, "Anna ate some delicious cheesecake that she bought at a grocery store.")
	cs := decomposeParsed(&s)
	if len(cs) != 2 {
		t.Fatalf("got %d clauses, want 2: %v", len(cs), clauseWords(cs))
	}
	main, sub := cs[0], cs[1]
	if main.Score != 1.0 || sub.Score != 0.8 {
		t.Errorf("scores = %v, %v", main.Score, sub.Score)
	}
	// Main clause keeps the object but not the relative clause's verb.
	if !main.ContainsSequence([]string{"anna", "ate", "cheesecake"}) {
		t.Errorf("main = %v", main.Words)
	}
	if main.ContainsSequence([]string{"bought"}) {
		t.Errorf("main leaked subordinate verb: %v", main.Words)
	}
	// Subordinate clause keeps its governor noun so "bought ... store" and
	// the modified noun are matchable.
	if !sub.ContainsSequence([]string{"she", "bought"}) || !sub.ContainsSequence([]string{"bought", "store"}) {
		t.Errorf("sub = %v", sub.Words)
	}
	if !sub.ContainsSequence([]string{"cheesecake"}) {
		t.Errorf("sub missing governor noun: %v", sub.Words)
	}
}

func TestDecomposeCoordination(t *testing.T) {
	s := nlp.AnnotateSentence(0, "I ate a chocolate ice cream, which was delicious, and also ate a pie.")
	cs := decomposeParsed(&s)
	if len(cs) != 3 {
		t.Fatalf("got %d clauses, want 3: %v", len(cs), clauseWords(cs))
	}
	// Clause roots in order: ate(1) main, was(8) rcmod, ate(13) conj.
	if cs[0].Score != 1.0 || cs[1].Score != 0.8 || cs[2].Score != 0.9 {
		t.Errorf("scores = %v %v %v", cs[0].Score, cs[1].Score, cs[2].Score)
	}
	if !cs[1].ContainsSequence([]string{"which", "was", "delicious"}) {
		t.Errorf("rcmod clause = %v", cs[1].Words)
	}
	// The conj clause inherits the shared subject "I".
	if !cs[2].ContainsSequence([]string{"i", "ate", "pie"}) {
		t.Errorf("conj clause = %v", cs[2].Words)
	}
	// The main clause must not contain the pie.
	if cs[0].ContainsSequence([]string{"pie"}) {
		t.Errorf("main clause leaked conj material: %v", cs[0].Words)
	}
}

func TestDecomposeNoVerb(t *testing.T) {
	s := nlp.AnnotateSentence(0, "cities in asian countries such as China and Japan.")
	cs := decomposeParsed(&s)
	if len(cs) != 1 {
		t.Fatalf("got %d clauses: %v", len(cs), clauseWords(cs))
	}
	if cs[0].Score != 1.0 {
		t.Errorf("score = %v", cs[0].Score)
	}
}

func TestContainsSequence(t *testing.T) {
	words := []string{"the", "cafe", "serves", "really", "great", "coffee"}
	cases := []struct {
		seq  []string
		want bool
	}{
		{[]string{"serves", "coffee"}, true},
		{[]string{"serves", "great", "coffee"}, true},
		{[]string{"coffee", "serves"}, false},
		{[]string{"cafe"}, true},
		{[]string{"espresso"}, false},
		{nil, false},
	}
	for _, tc := range cases {
		if got := ContainsSequence(words, tc.seq); got != tc.want {
			t.Errorf("ContainsSequence(%v) = %v, want %v", tc.seq, got, tc.want)
		}
	}
}

func TestDecomposeEmpty(t *testing.T) {
	s := nlp.Sentence{}
	if cs := decomposeParsed(&s); cs != nil {
		t.Errorf("empty sentence: %v", cs)
	}
}
