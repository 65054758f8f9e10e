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
// one block of candidate documents at a time as the consumer pulls. Memory
// is bounded by one block's tuples, not the result size, and the first tuple
// is available as soon as the first block has been evaluated. A stream runs
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

// Docs yields the tuples of each block of whole candidate documents, in
// ascending document order, exactly as the buffered path would have
// appended them. Blocks without tuples are skipped. The yielded slice is
// reused by the next block: a consumer that keeps tuples must copy them out
// before it asks for the next one (their values stay valid). Breaking out of
// the loop stops evaluation before the next block.
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
// (normalize, DPLI, plan) runs before Stream returns; block evaluation runs
// as the returned Stream is pulled.
func (e *Engine) Stream(q *lang.Query, ro RunOptions) (*Stream, error) {
	return e.stream(q, ro, blockSents)
}

// stream is Stream with blocks of size candidate sentences.
func (e *Engine) stream(q *lang.Query, ro RunOptions, size int) (*Stream, error) {
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
	st.seq = e.streamBlocks(nq, dpli, cands, ro, plan, st, size)
	return st, nil
}

// streamBlocks builds the block iterator over the candidate list. Each pull
// takes whole documents until it holds at least size candidate sentences
// (aggregation is document-scoped, so a document never splits), evaluates
// them phase by phase on the pulling goroutine, and yields their tuples,
// with no buffering beyond the current block. The context is checked, and
// the store recovery boundary armed, once per block. Counters and phase
// times accumulate into st.res in document order as the consumer pulls.
func (e *Engine) streamBlocks(nq *normQuery, dpli *dpliResult, cands []int32, ro RunOptions, plan *queryPlan, st *Stream, size int) func(yield func([]Tuple) bool) {
	return func(yield func([]Tuple) bool) {
		w := e.newBlockWorker(nq, dpli, ro, plan)
		for i := 0; i < len(cands); {
			if err := ctxErr(ro.Ctx); err != nil {
				st.err = err
				return
			}
			i = w.fill(cands, i, size)
			tuples, err := w.evalBlockGuarded(st.res)
			if err != nil {
				st.err = err
				return
			}
			if len(tuples) > 0 && !yield(tuples) {
				return
			}
		}
		addPlanActuals(st.res, plan, w.ev)
	}
}

// evalBlockGuarded is evalBlock inside the store recovery boundary
// (storeFault): the aggregator reads word postings, which a block store
// decodes lazily.
func (w *blockWorker) evalBlockGuarded(res *Result) (tuples []Tuple, err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if e := storeFault(w.e.ix, recover()); e != nil {
			err = e
		}
	}()
	return w.evalBlock(res), nil
}
