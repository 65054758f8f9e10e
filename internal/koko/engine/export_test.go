package engine

import (
	"repro/internal/koko/index"
	"repro/internal/nlp"
)

// SpanWords exposes the aggregator's span-to-word-sequence step to the
// external property test (span_property_test.go), which needs the corpus
// generators and so cannot live in this package. The sentence is converted
// to columns of its own, into whose dictionary merged mark runs are interned
// so that every word reads back as a string.
func SpanWords(s *nlp.Sentence, l, r int) []string {
	v := index.SentOf(s)
	ag := &aggregator{mergedID: v.Dict.Intern}
	var out []string
	for _, id := range ag.spanWords(&v, span{l, r}) {
		out = append(out, v.Dict.Str(id))
	}
	return out
}
