package nlp

import (
	"reflect"
	"testing"
)

func TestSplitSentences(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{
			"I ate a pie. Anna ate cheesecake.",
			[]string{"I ate a pie.", "Anna ate cheesecake."},
		},
		{
			"Dr. Smith visited Mr. Jones. They drank coffee.",
			[]string{"Dr. Smith visited Mr. Jones.", "They drank coffee."},
		},
		{
			"Was it good? Yes! Very good.",
			[]string{"Was it good?", "Yes!", "Very good."},
		},
		{
			"The cafe opened in 1999. It serves 3.5 million cups.",
			[]string{"The cafe opened in 1999.", "It serves 3.5 million cups."},
		},
		{
			"First paragraph\n\nSecond paragraph.",
			[]string{"First paragraph", "Second paragraph."},
		},
		{"", nil},
		{"   \n  ", nil},
	}
	for _, tc := range tests {
		got := SplitSentences(tc.in)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("SplitSentences(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestTokenize(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{
			"I ate a pie.",
			[]string{"I", "ate", "a", "pie", "."},
		},
		{
			"delicious, salty pie",
			[]string{"delicious", ",", "salty", "pie"},
		},
		{
			"pour-over coffee at Odin's place",
			[]string{"pour-over", "coffee", "at", "Odin's", "place"},
		},
		{
			"open at 7 a.m. daily",
			[]string{"open", "at", "7", "a.m", ".", "daily"},
		},
		{
			"(great espresso)",
			[]string{"(", "great", "espresso", ")"},
		},
		{"", nil},
	}
	for _, tc := range tests {
		got := Tokenize(tc.in)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Tokenize(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestTagPOSBasics(t *testing.T) {
	toks := Tokenize("I ate a chocolate ice cream, which was delicious, and also ate a pie.")
	tags := TagPOS(toks)
	want := []string{
		PosPron, PosVerb, PosDet, PosNoun, PosNoun, PosNoun, PosPunct,
		PosPron, PosVerb, PosAdj, PosPunct, PosConj, PosAdv, PosVerb,
		PosDet, PosNoun, PosPunct,
	}
	if len(tags) != len(want) {
		t.Fatalf("got %d tags, want %d (%v)", len(tags), len(want), tags)
	}
	for i := range want {
		if tags[i] != want[i] {
			t.Errorf("token %q: tag %s, want %s", toks[i], tags[i], want[i])
		}
	}
}

func TestTagPOSHeuristics(t *testing.T) {
	cases := []struct {
		sentence string
		idx      int
		want     string
	}{
		{"She quickly ran home", 1, PosAdv},    // -ly
		{"a wonderful evening", 1, PosAdj},     // -ful
		{"the organization grew", 1, PosNoun},  // -tion
		{"Portland is lovely", 0, PosPropn},    // gazetteer propn
		{"the roast was smooth", 1, PosNoun},   // verb form after det
		{"3.5 million cups", 0, PosNum},        // number with period
		{"meet at 1900 hours", 2, PosNum},      // digits
		{"that cafe is cozy", 0, PosDet},       // that+noun = det
		{"the pie that she baked", 2, PosPron}, // relative that
		{"Espresso is life", 0, PosNoun},       // sentence-initial known noun
	}
	for _, tc := range cases {
		toks := Tokenize(tc.sentence)
		tags := TagPOS(toks)
		if tags[tc.idx] != tc.want {
			t.Errorf("%q token %d (%s): tag %s, want %s", tc.sentence, tc.idx, toks[tc.idx], tags[tc.idx], tc.want)
		}
	}
}

func TestNormalizeLabelAndPOS(t *testing.T) {
	if NormalizeLabel("PUNCT") != "p" || NormalizeLabel("p") != "p" {
		t.Error("punct alias broken")
	}
	if NormalizeLabel(" Nsubj ") != "nsubj" {
		t.Error("trim/case broken")
	}
	if NormalizePOS("VERB") != "verb" || NormalizePOS("NN") != "noun" {
		t.Error("POS normalize broken")
	}
}

func TestSentenceTextDetokenization(t *testing.T) {
	s := AnnotateSentence(0, "Anna ate some delicious cheesecake, honestly.")
	got := s.String()
	want := "Anna ate some delicious cheesecake, honestly."
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestPipelineMultiSentence(t *testing.T) {
	doc := NewPipeline().Annotate(0, "input", "I ate a pie. Anna ate cheesecake at a grocery store.", 0)
	if len(doc.Sentences) != 2 {
		t.Fatalf("got %d sentences, want 2", len(doc.Sentences))
	}
	if doc.Sentences[0].ID != 0 || doc.Sentences[1].ID != 1 {
		t.Errorf("sentence ids = %d,%d", doc.Sentences[0].ID, doc.Sentences[1].ID)
	}
	for _, s := range doc.Sentences {
		if err := s.Validate(); err != nil {
			t.Errorf("sentence %d: %v", s.ID, err)
		}
	}
}
