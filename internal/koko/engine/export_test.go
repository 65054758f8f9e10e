package engine

import (
	"repro/internal/embed"
	"repro/internal/koko/index"
	"repro/internal/koko/lang"
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

// RefLookupDecomposed and DPLIEstimates expose the DPLI module to the
// external differential (dpli_test.go), which needs the corpus generators.
var RefLookupDecomposed = refLookupDecomposed

// DPLIOutcome is what the rest of a run reads of one DPLI: the candidate
// sentences, and per variable slot its binding estimate at each candidate
// and its plan estimate over them.
type DPLIOutcome struct {
	Exhausted, All bool
	Cands          []int32
	Estimates      [][]int
	PlanEstimates  []int64
}

// DPLIEstimates runs DPLI for query src over ix.
func DPLIEstimates(ix *index.Index, src string, planned bool) DPLIOutcome {
	nq, err := normalize(lang.MustParse(src), embed.NewModel())
	if err != nil {
		panic(err)
	}
	d := runDPLI(nq, ix, planned)
	out := DPLIOutcome{Exhausted: d.exhausted, All: d.allSentences, Cands: d.candSids}
	cc := newCountCursor(d, len(nq.vars))
	for slot := range nq.vars {
		est := make([]int, len(d.candSids))
		for i, sid := range d.candSids {
			est[i] = cc.at(slot, sid)
		}
		out.Estimates = append(out.Estimates, est)
		out.PlanEstimates = append(out.PlanEstimates, sumCounts(d.counts[slot], d.candSids))
	}
	return out
}

// StreamBlocks is Stream with blocks of n candidate sentences instead of
// the evaluation loop's own size.
func (e *Engine) StreamBlocks(q *lang.Query, ro RunOptions, n int) (*Stream, error) {
	return e.stream(q, ro, n)
}

// BlockSents is the evaluation loop's block size.
const BlockSents = blockSents
