package engine_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/koko/engine"
	"repro/internal/koko/index"
	"repro/internal/nlp"
)

// The aggregator is handed a candidate value as a token span and finds its
// mentions by comparing Token.Lower sequences. The seed rendered the span
// with Sentence.Text and tokenised the string again. The two agree only if,
// for every span a query can bind (any [l,r] of a sentence: elastic spans
// reach them all),
//
//	Token.Lower[l..r] == lower(Tokenize(Text(l, r)))
//
// This test pins that property over the four corpus generators, and names the
// one case where it does not hold — in which engine.SpanWords must still
// return the re-tokenised form.

// retokenised is the seed's word sequence for the span.
func retokenised(s *nlp.Sentence, l, r int) []string {
	toks := nlp.Tokenize(s.Text(l, r))
	for i := range toks {
		toks[i] = strings.ToLower(toks[i])
	}
	return toks
}

func lowerOf(s *nlp.Sentence, l, r int) []string {
	out := make([]string, 0, r-l+1)
	for i := l; i <= r; i++ {
		out = append(out, s.Tokens[i].Lower)
	}
	return out
}

// checkSpans checks every span of every distinct sentence and returns the
// spans whose plain Token.Lower sequence differs from the re-tokenised one.
func checkSpans(t *testing.T, label string, c *index.Corpus) (differing []string) {
	t.Helper()
	seen := map[string]bool{}
	for sid := 0; sid < c.NumSentences(); sid++ {
		s := c.Sentence(sid)
		if text := s.String(); seen[text] {
			continue
		} else {
			seen[text] = true
		}
		for l := range s.Tokens {
			for r := l; r < len(s.Tokens); r++ {
				want := retokenised(s, l, r)
				if got := engine.SpanWords(s, l, r); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s sid %d span [%d,%d] %q: SpanWords %q, re-tokenised %q", label, sid, l, r, s.Text(l, r), got, want)
				}
				if !reflect.DeepEqual(lowerOf(s, l, r), want) {
					differing = append(differing, s.Text(l, r))
				}
			}
		}
	}
	return differing
}

func TestSpanLowerEqualsRetokenisedOnGenerators(t *testing.T) {
	wiki, _ := corpus.GenWikipedia(400, 3)
	for label, c := range map[string]*index.Corpus{
		"cafes":     corpus.GenCafes(corpus.BaristaMagConfig(3)).Corpus,
		"tweets":    corpus.GenWNUT(corpus.WNUTConfig{Tweets: 600, Seed: 3}).Corpus,
		"happydb":   corpus.GenHappyDB(1500, 3),
		"wikipedia": wiki,
	} {
		if d := checkSpans(t, label, c); len(d) > 0 {
			t.Errorf("%s: %d spans whose Token.Lower sequence is not their re-tokenised rendering, e.g. %q", label, len(d), d[0])
		}
	}
}

func TestSpanLowerEqualsRetokenisedOnPunctuation(t *testing.T) {
	cases := []struct {
		name, text string
		glued      bool // some span renders to a token the sentence does not have
	}{
		{"hyphenated words", "The well-known pour-over at the drive-in was so-so.", false},
		{"spaced hyphen", "We ordered cake - and pie - today.", false},
		{"apostrophes", "Odin's cafe and the dogs' toys aren't Anna’s.", false},
		{"quoted words", "He said 'n' then \"delicious\" (twice).", false},
		{"acronyms and abbreviations", "The U.S. team met Dr. Smith at 5 p.m. in St. Louis, etc.", false},
		{"numbers", "It cost $5.50, i.e. 3.5 times 1,000 or 50% more.", false},
		{"trailing commas", "Coffee, cake, and pie, all delicious, arrived; finally!", false},
		{"mixed mark runs", "Really?! Yes!! No?? Hmm ;; ::", false},
		// Text glues a punctuation token to its predecessor without a space,
		// and the tokenizer reads a run of one "." or "-" as a single token:
		// two such neighbours come back as one token the sentence never had.
		{"glued dot runs", "Wait... . then ok . . done.", true},
		{"glued dash runs", "Cake -- - and pie - - done.", true},
	}
	for _, tc := range cases {
		d := checkSpans(t, tc.name, index.NewCorpus(nil, []string{tc.text}))
		if tc.glued && len(d) == 0 {
			t.Errorf("%s: expected a span that re-tokenises differently, found none", tc.name)
		}
		if !tc.glued && len(d) > 0 {
			t.Errorf("%s: %d spans re-tokenise differently, e.g. %q", tc.name, len(d), d[0])
		}
	}
}
