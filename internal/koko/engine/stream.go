package engine

import (
	"iter"
	"runtime/debug"
	"time"

	"repro/internal/koko/lang"
)

// Streaming evaluation: the pull-based core that Run/RunWith are thin
// collectors over. A Stream performs the cheap prologue eagerly (normalize,
// DPLI pruning, planning) so header fields — candidate count, the chosen
// plan — are available before any document is evaluated, then yields tuples
// one document at a time as the consumer pulls. Memory is bounded by one
// document's tuples, not the result size, and the first tuple is available
// as soon as the first candidate document has been evaluated. A stream runs
// on the goroutine that pulls it; the only intra-query parallelism is the
// shard fan-out above the engine.

// Stream is a started streaming evaluation. Docs is single-use; Err and
// Result are meaningful once the iterator has returned (normally or via
// early break).
type Stream struct {
	res     *Result
	seq     func(yield func([]Tuple) bool)
	err     error
	started bool
}

// Docs yields each candidate document's tuples, in ascending document order,
// exactly as the buffered path would have appended them. Empty documents are
// skipped. The yielded slice is reused by the next document: a consumer
// that keeps tuples must copy them out before it asks for the next one.
// Breaking out of the loop stops evaluation before the next document.
func (s *Stream) Docs() iter.Seq[[]Tuple] {
	return func(yield func([]Tuple) bool) {
		if s.started {
			panic("engine: Stream.Docs consumed twice")
		}
		s.started = true
		s.seq(yield)
	}
}

// Err reports why the stream stopped: nil after a complete drain or consumer
// break, the context error if the run was cancelled.
func (s *Stream) Err() error { return s.err }

// Result returns the run's counters, phase times, and plan report — without
// tuples, which were already yielded. Valid only after Docs has been fully
// drained; the plan's actual-bindings column is folded in at drain time.
func (s *Stream) Result() *Result { return s.res }

// Collect drains the stream into a materialized Result: the buffered mode as
// a thin collector over the iterator.
func (s *Stream) Collect() (*Result, error) {
	for batch := range s.Docs() {
		s.res.Tuples = append(s.res.Tuples, batch...)
	}
	if s.err != nil {
		return nil, s.err
	}
	return s.res, nil
}

// Stream begins a streaming evaluation with per-run overrides. The prologue
// (normalize, DPLI, plan) runs before Stream returns; per-document evaluation
// runs as the returned Stream is pulled.
func (e *Engine) Stream(q *lang.Query, ro RunOptions) (*Stream, error) {
	if err := ctxErr(ro.Ctx); err != nil {
		return nil, err
	}
	res := &Result{}
	t0 := time.Now()
	nq, err := e.normalize(q)
	if err != nil {
		return nil, err
	}
	res.Times.Normalize = time.Since(t0)

	t0 = time.Now()
	dpli, err := runDPLIGuarded(nq, e.ix, !ro.NoPlan)
	if err != nil {
		return nil, err
	}
	res.Times.DPLI = time.Since(t0)
	st := &Stream{res: res}
	if dpli.exhausted {
		st.seq = func(func([]Tuple) bool) {}
		return st, nil
	}
	var cands []int32
	if dpli.allSentences {
		cands = make([]int32, e.cols.NumSentences())
		for i := range cands {
			cands[i] = int32(i)
		}
	} else {
		cands = dpli.candSids
	}
	res.CandidateSentences = len(cands)
	var plan *queryPlan
	if !ro.NoPlan {
		t0 = time.Now()
		plan = buildQueryPlan(nq, dpli, cands)
		res.Times.Plan = time.Since(t0)
		res.Plan = plan.info(nq)
	}
	st.seq = e.streamDocs(nq, dpli, cands, ro, plan, st)
	return st, nil
}

// streamDocs builds the per-document iterator over the candidate list: one
// document per pull, evaluated on the pulling goroutine, with no buffering
// beyond the current document's tuples. Evidence aggregation and article
// loading are document-scoped; cands is sorted and DocOfSent is
// non-decreasing in sid, so each document's candidates are one contiguous
// run and document order falls out ascending. Counters and phase times
// accumulate into st.res in document order as the consumer pulls.
func (e *Engine) streamDocs(nq *normQuery, dpli *dpliResult, cands []int32, ro RunOptions, plan *queryPlan, st *Stream) func(yield func([]Tuple) bool) {
	return func(yield func([]Tuple) bool) {
		w := e.newDocWorker(nq, dpli, ro, plan)
		for i := 0; i < len(cands); {
			if err := ctxErr(ro.Ctx); err != nil {
				st.err = err
				return
			}
			d := e.cols.DocOfSent[cands[i]]
			j := i + 1
			for j < len(cands) && e.cols.DocOfSent[cands[j]] == d {
				j++
			}
			dr, err := w.evalDocGuarded(int(d), cands[i:j])
			if err != nil {
				st.err = err
				return
			}
			i = j
			mergeDocCounters(st.res, dr)
			if len(dr.tuples) > 0 && !yield(dr.tuples) {
				return
			}
		}
		addPlanActuals(st.res, plan, w.ev)
	}
}

// evalDocGuarded is evalDoc inside the store recovery boundary
// (storeFault): the aggregator reads word postings, which a block store
// decodes lazily.
func (w *docWorker) evalDocGuarded(d int, sids []int32) (dr docEvalResult, err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if e := storeFault(w.e.ix, recover()); e != nil {
			err = e
		}
	}()
	return w.evalDoc(d, sids), nil
}
