package experiments

import (
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/embed"
	"repro/internal/koko/engine"
	"repro/internal/koko/index"
	"repro/internal/koko/lang"
)

// Property tests for the zero-allocation hot path: across the cafes, tweets,
// and HappyDB generators, the indexed engine (slot-based evaluation + DPLI
// merge joins) and the naïve ground-truth evaluator must emit
// byte-identical tuples — values, order, and satisfying scores included.

func requireSameTuples(t *testing.T, label string, a, b *engine.Result) {
	t.Helper()
	if len(a.Tuples) != len(b.Tuples) {
		t.Fatalf("%s: %d vs %d tuples", label, len(a.Tuples), len(b.Tuples))
	}
	for i := range a.Tuples {
		ta, tb := &a.Tuples[i], &b.Tuples[i]
		if ta.SentenceID != tb.SentenceID || ta.Document != tb.Document {
			t.Fatalf("%s: tuple %d at sid=%d/doc=%d vs sid=%d/doc=%d",
				label, i, ta.SentenceID, ta.Document, tb.SentenceID, tb.Document)
		}
		if !reflect.DeepEqual(ta.Values, tb.Values) {
			t.Fatalf("%s: tuple %d values %q vs %q", label, i, ta.Values, tb.Values)
		}
		if !reflect.DeepEqual(ta.Scores, tb.Scores) {
			t.Fatalf("%s: tuple %d scores %v vs %v", label, i, ta.Scores, tb.Scores)
		}
	}
	if a.MatchedSentences != b.MatchedSentences {
		t.Fatalf("%s: MatchedSentences %d vs %d", label, a.MatchedSentences, b.MatchedSentences)
	}
}

func runDifferential(t *testing.T, label string, c *index.Corpus, dicts map[string]map[string]bool, queries []*lang.Query) {
	t.Helper()
	model := embed.NewModel()
	ix := index.Build(c)
	eng := engine.New(c, ix, model, engine.Options{Dicts: dicts})
	for qi, q := range queries {
		serial, err := eng.Run(q)
		if err != nil {
			t.Fatalf("%s q%d: %v", label, qi, err)
		}
		naive, err := eng.RunNaive(q)
		if err != nil {
			t.Fatalf("%s q%d: %v", label, qi, err)
		}
		// DPLI pruning is sound: the indexed run must reproduce the naïve
		// ground truth exactly (tuples, order, scores, matched sentences).
		requireSameTuples(t, label+" indexed-vs-naive", serial, naive)
		if serial.CandidateSentences > naive.CandidateSentences {
			t.Fatalf("%s q%d: more candidates (%d) than sentences (%d)",
				label, qi, serial.CandidateSentences, naive.CandidateSentences)
		}
	}
}

func TestHotPathDifferentialCafes(t *testing.T) {
	lc := corpus.GenCafes(corpus.BaristaMagConfig(3))
	runDifferential(t, "cafes", lc.Corpus, lc.Dicts, []*lang.Query{
		CafeQuery(0.8, true),
		CafeQuery(0.3, false),
	})
}

func TestHotPathDifferentialTweets(t *testing.T) {
	w := corpus.GenWNUT(corpus.WNUTConfig{Tweets: 250, Seed: 4})
	runDifferential(t, "tweets", w.Corpus, nil, []*lang.Query{
		TeamQuery(0.85),
		FacilityQuery(0.8),
	})
}

func TestHotPathDifferentialHappyDB(t *testing.T) {
	for _, seed := range []int64{5, 11} {
		c := corpus.GenHappyDB(300, seed)
		runDifferential(t, "happydb", c, nil, []*lang.Query{
			lang.MustParse(`extract d:Str, s:Str from "happydb" if (
				/ROOT:{ v = //verb, o = v/dobj, d = (o.subtree), s = "i" + ^ + v + ^ + o })`),
			lang.MustParse(`extract o:Str from "happydb" if (
				/ROOT:{ v = //verb, b = v/dobj, o = (b.subtree) })
				satisfying o ("ate" o {0.7}) or (o near "delicious" {1}) with threshold 0.2`),
			lang.MustParse(`extract e:Entity, d:Str from "happydb" if (
				/ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) } (b) in (e))`),
		})
	}
}
