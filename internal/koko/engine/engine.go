package engine

import (
	"context"
	"fmt"
	"time"

	"repro/internal/embed"
	"repro/internal/koko/index"
	"repro/internal/koko/lang"
)

// Options configures evaluation.
type Options struct {
	// DisableSkipPlan turns GSP off: every variable, including elastic
	// spans, is evaluated by its own nested loop (the Table 1 NOGSP
	// baseline).
	DisableSkipPlan bool
	// Dicts provides the dictionaries referenced by dict(...) conditions,
	// keyed by name, with lowercase members.
	Dicts map[string]map[string]bool
	// Deprecated: Workers is read by nothing. Documents evaluate in order
	// on the goroutine that pulls the stream; a query parallelizes only
	// across shards. Kept for callers that still set it.
	Workers int
	// Explain attaches per-condition evidence breakdowns to tuples (the
	// paper's debuggability claim: "users can discover the reasons that
	// led to an extraction").
	Explain bool
}

// Engine evaluates KOKO queries over an indexed shard's columns.
type Engine struct {
	cols  *index.Columns
	ix    *index.Index
	model *embed.Model
	opts  Options
	// globalScores memoizes document-independent satisfying-condition
	// confidences across documents and queries.
	globalScores *globalCache
}

// New builds an engine over a parsed corpus, converting it to columns once.
// model may be nil (descriptor and similarTo conditions then score 0).
func New(corpus *index.Corpus, ix *index.Index, model *embed.Model, opts Options) *Engine {
	return NewColumns(index.ColumnsOf(corpus), ix, model, opts)
}

// NewColumns builds an engine over a shard's columns and their index.
func NewColumns(cols *index.Columns, ix *index.Index, model *embed.Model, opts Options) *Engine {
	return &Engine{cols: cols, ix: ix, model: model, opts: opts, globalScores: newGlobalCache()}
}

// Tuple is one output row. It is the only tuple type: the koko package
// re-exports it, so a tuple reaches the server's JSON encoder without being
// copied into another type.
type Tuple struct {
	// SentenceID is the corpus-global id of the sentence the extraction
	// came from; Document is the document index.
	SentenceID int
	Document   int
	// Values holds the output columns in declaration order.
	Values []string
	// Scores holds the satisfying-clause score per satisfying variable.
	Scores map[string]float64
	// Evidence, populated when Options.Explain is set, breaks every
	// satisfying-clause score into per-condition contributions.
	Evidence []CondEvidence
}

// PhaseTimes is the Table 2 breakdown, plus the query-planning phase (its
// own line so BENCH numbers isolate planner overhead from extract time).
type PhaseTimes struct {
	Normalize  time.Duration
	DPLI       time.Duration
	Plan       time.Duration
	GSP        time.Duration
	Extract    time.Duration
	Satisfying time.Duration
}

// Total sums all phases.
func (p PhaseTimes) Total() time.Duration {
	return p.Normalize + p.DPLI + p.Plan + p.GSP + p.Extract + p.Satisfying
}

// PlanStep is one position of the chosen evaluation order: the variable,
// its kind, the DPLI binding estimate the planner ordered by, and the
// actual candidate bindings enumerated during evaluation.
type PlanStep struct {
	Var       string `json:"var"`
	Kind      string `json:"kind"`
	Estimated int64  `json:"estimated"`
	Actual    int64  `json:"actual"`
}

// PlanInfo surfaces the query plan: the chosen condition order and whether
// it differs from the written order.
type PlanInfo struct {
	Steps     []PlanStep `json:"steps"`
	Reordered bool       `json:"reordered"`
}

// Result is the outcome of a query run.
type Result struct {
	Tuples []Tuple
	Times  PhaseTimes
	// CandidateSentences is the number of sentences surviving DPLI pruning;
	// MatchedSentences is how many of them produced at least one extract
	// assignment (their ratio is the index-effectiveness metric of §6.2.2).
	CandidateSentences int
	MatchedSentences   int
	EvaluatedSentences int
	// Plan is the selectivity plan used for this run (nil when planning was
	// off or the query short-circuited before evaluation).
	Plan *PlanInfo
}

// RunOptions overrides per-run evaluation knobs without rebuilding the
// engine. The zero value inherits nothing: callers that want the engine
// defaults should use Run. A server can thus share one Engine across
// requests while honoring request-level Explain settings.
type RunOptions struct {
	// Deprecated: Workers is read by nothing; see Options.Workers.
	Workers int
	// Explain attaches per-condition evidence to this run's tuples.
	Explain bool
	// NoPlan evaluates conditions in written order for this run instead of
	// the selectivity-ordered plan. It is the test oracle for the planner's
	// differentials; nothing on the serving path sets it.
	NoPlan bool
	// Ctx, when non-nil, cancels the run: evaluation checks it between
	// documents (the natural unit — aggregation is document-scoped) and the
	// run returns ctx.Err() instead of a partial result. This is what makes
	// a cancelled job or a disconnected streaming client actually stop
	// burning CPU mid-evaluation rather than at the next request boundary.
	Ctx context.Context
}

// ctxErr reports the cancellation state of an optional context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Run evaluates a parsed query with the engine's configured options. It is
// safe to call concurrently from multiple goroutines: the one cross-run
// state (the global score cache) is mutex-guarded, and each run's working
// state is private to the call.
func (e *Engine) Run(q *lang.Query) (*Result, error) {
	return e.RunWith(q, RunOptions{Explain: e.opts.Explain})
}

// RunWith evaluates a parsed query with per-run overrides. Like Run it is
// safe for concurrent use. It is a thin collector over Stream: the same
// iterator that feeds the streaming paths, drained into a Result.
func (e *Engine) RunWith(q *lang.Query, ro RunOptions) (*Result, error) {
	st, err := e.Stream(q, ro)
	if err != nil {
		return nil, err
	}
	return st.Collect()
}

// RunNaive evaluates without any index pruning: every sentence is a
// candidate. It is the reference semantics for property tests and the
// ground truth for effectiveness measurements.
func (e *Engine) RunNaive(q *lang.Query) (*Result, error) {
	res := &Result{}
	nq, err := e.normalize(q)
	if err != nil {
		return nil, err
	}
	cands := make([]int32, e.cols.NumSentences())
	for i := range cands {
		cands[i] = int32(i)
	}
	res.CandidateSentences = len(cands)
	st := &Stream{res: res}
	st.seq = e.streamDocs(nq, &dpliResult{}, cands, RunOptions{Explain: e.opts.Explain}, nil, st)
	return st.Collect()
}

// addPlanActuals folds the run's per-slot candidate counts into the
// plan's estimated-vs-actual report.
func addPlanActuals(res *Result, plan *queryPlan, ev *sentEval) {
	if plan == nil || res.Plan == nil || ev == nil || ev.actual == nil {
		return
	}
	for i, st := range plan.steps {
		res.Plan.Steps[i].Actual += ev.actual[st.slot]
	}
}

// docEvalResult is one document's evaluation outcome.
type docEvalResult struct {
	tuples    []Tuple
	times     PhaseTimes
	matched   int
	evaluated int
}

// mergeDocCounters folds one document's counters and phase times into res,
// leaving tuple delivery to the iterator (streaming consumers never touch
// res.Tuples; collectors append the yielded batches themselves).
func mergeDocCounters(res *Result, dr docEvalResult) {
	res.Times.GSP += dr.times.GSP
	res.Times.Extract += dr.times.Extract
	res.Times.Satisfying += dr.times.Satisfying
	res.MatchedSentences += dr.matched
	res.EvaluatedSentences += dr.evaluated
}

// docWorker is one run's private evaluation state: the reusable
// per-sentence scratch, the per-document aggregator, the reused tuple slice,
// and the forward cursor into the DPLI count tables. One exists per stream,
// so nothing here needs locks.
type docWorker struct {
	e  *Engine
	nq *normQuery
	ro RunOptions
	ev *sentEval
	cc countCursor

	epoch time.Time // evalOneSentence's phase clock reads are offsets from it

	ag    *aggregator  // nil when the query has no satisfying/excluding clause
	sents []index.Sent // the current document's sentences, for the aggregator

	// tuples holds the current document's tuples; the next document reuses
	// it, so a consumer copies what it keeps.
	tuples []Tuple

	// finishTuple scratch: the candidate value per variable slot and the
	// score per satisfying clause.
	vals   []spanValue
	scores []float64
}

func (e *Engine) newDocWorker(nq *normQuery, dpli *dpliResult, ro RunOptions, plan *queryPlan) *docWorker {
	w := &docWorker{
		e:      e,
		nq:     nq,
		ro:     ro,
		ev:     newSentEval(nq, e.opts.DisableSkipPlan),
		cc:     newCountCursor(dpli, len(nq.vars)),
		vals:   make([]spanValue, len(nq.vars)),
		scores: make([]float64, len(nq.satisfying)),
		epoch:  time.Now(),
	}
	if len(nq.satisfying) > 0 || len(nq.excluding) > 0 {
		w.ag = newAggregator(e.ix, &e.cols.Dict, e.model, e.opts.Dicts, e.globalScores)
	}
	w.ev.setPlan(plan)
	return w
}

// evalDoc evaluates every candidate sentence of one document: GSP + nested
// loops per sentence, then satisfying/excluding per assignment against the
// aggregator, reset to this document. The returned tuples live in the
// worker's slice, which the next document reuses.
func (w *docWorker) evalDoc(d int, sids []int32) docEvalResult {
	e := w.e
	dr := docEvalResult{tuples: w.tuples[:0]}
	first, end := e.cols.DocSentences(d)
	if w.ag != nil {
		// A sentence view is a few slice headers, so setting up a document
		// allocates nothing (the window is reused).
		w.sents = w.sents[:0]
		for sid := first; sid < end; sid++ {
			w.sents = append(w.sents, e.cols.Sent(sid))
		}
		w.ag.reset(first, w.sents)
	}
	for _, sid := range sids {
		if int(sid) < first || int(sid) >= end {
			continue
		}
		s := e.cols.Sent(int(sid))
		w.evalOneSentence(&dr, d, &s, sid)
	}
	w.tuples = dr.tuples
	return dr
}

// evalOneSentence runs GSP + extract + satisfying over one sentence,
// accumulating phase times and tuples into dr. The clock is read once per
// phase boundary, monotonic only (a Duration since the worker's epoch): each
// read ends one phase and starts the next. GSP, the plan generation, is
// timed apart from the nested-loop evaluation (Table 2's GSP vs extract
// columns), and counted only while the skip plan is on.
func (w *docWorker) evalOneSentence(dr *docEvalResult, d int, s *index.Sent, sid int32) {
	e, ev := w.e, w.ev
	dr.evaluated++
	tg := time.Since(w.epoch)
	ev.prepare(s, &w.cc, sid)
	tx := time.Since(w.epoch)
	if !e.opts.DisableSkipPlan {
		dr.times.GSP += tx - tg
	}
	nout := ev.extract()
	ts := time.Since(w.epoch)
	dr.times.Extract += ts - tx
	if nout == 0 {
		return
	}
	dr.matched++

	for i := 0; i < nout; i++ {
		tuple, ok := w.finishTuple(&ev.s, d, ev.out(i))
		if ok {
			dr.tuples = append(dr.tuples, tuple)
		}
	}
	dr.times.Satisfying += time.Since(w.epoch) - ts
}

// finishTuple applies satisfying clauses (threshold) and excluding
// conditions to the assignment's spans, then — only for a surviving
// assignment — renders the output values and builds the tuple, so a rejected
// candidate allocates nothing unless a condition had to read its string. The
// assignment is fully bound (deriveAndEmit only emits complete assignments),
// so every access is a direct slot index.
func (w *docWorker) finishTuple(s *index.Sent, doc int, a assignment) (Tuple, bool) {
	nq, ag := w.nq, w.ag
	for slot := range w.vals {
		w.vals[slot] = spanValue{s: s, sp: a[slot].sp}
	}
	// Satisfying clauses: one per variable; the clause's value must
	// accumulate enough evidence.
	for i := range nq.satisfying {
		sc := &nq.satisfying[i]
		w.scores[i] = ag.clauseScore(sc, &w.vals[sc.slot])
		if w.scores[i] < sc.threshold {
			return Tuple{}, false
		}
	}
	for i := range nq.excluding {
		c := &nq.excluding[i]
		if c.slot >= 0 && ag.excluded(c, &w.vals[c.slot]) {
			return Tuple{}, false
		}
	}
	t := Tuple{SentenceID: s.ID, Document: doc, Values: make([]string, len(nq.outputs))}
	for i, slot := range nq.outSlots {
		t.Values[i] = w.vals[slot].text()
	}
	if len(nq.satisfying) > 0 {
		t.Scores = make(map[string]float64, len(nq.satisfying))
		for i := range nq.satisfying {
			sc := &nq.satisfying[i]
			t.Scores[sc.name] = w.scores[i]
			if w.ro.Explain {
				t.Evidence = append(t.Evidence, ag.explainClause(sc, &w.vals[sc.slot])...)
			}
		}
	}
	return t, true
}

// Candidates exposes DPLI pruning alone: the candidate sentence ids for a
// query. The index experiments (§6.2.2) measure this module's lookup time
// and effectiveness across indexing schemes.
func (e *Engine) Candidates(q *lang.Query) ([]int32, error) {
	nq, err := e.normalize(q)
	if err != nil {
		return nil, err
	}
	dpli, err := runDPLIGuarded(nq, e.ix, true)
	if err != nil {
		return nil, err
	}
	if dpli.exhausted {
		return nil, nil
	}
	if dpli.allSentences {
		all := make([]int32, e.cols.NumSentences())
		for i := range all {
			all[i] = int32(i)
		}
		return all, nil
	}
	return dpli.candSids, nil
}

// normalize normalizes a query and binds it to the engine's dictionary.
func (e *Engine) normalize(q *lang.Query) (*normQuery, error) {
	nq, err := normalize(q, e.model)
	if err != nil {
		return nil, err
	}
	nq.bind(&e.cols.Dict)
	return nq, nil
}

// String renders a tuple compactly for examples and debugging.
func (t Tuple) String() string {
	return fmt.Sprintf("sid=%d %v", t.SentenceID, t.Values)
}
