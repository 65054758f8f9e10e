package engine

import "repro/internal/nlp"

// SpanWords exposes the aggregator's span-to-word-sequence step to the
// external property test (span_property_test.go), which needs the corpus
// generators and so cannot live in this package.
func SpanWords(s *nlp.Sentence, l, r int) []string {
	return (&aggregator{}).spanWords(s, span{l, r})
}
