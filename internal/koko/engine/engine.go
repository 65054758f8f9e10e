package engine

import (
	"context"
	"fmt"
	"slices"
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
	// blocks of candidate documents (the unit the evaluation loop runs its
	// phases over) and the run returns ctx.Err() instead of a partial
	// result. This is what makes a cancelled job or a disconnected
	// streaming client actually stop burning CPU mid-evaluation rather than
	// at the next request boundary.
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
	st.seq = e.streamBlocks(nq, &dpliResult{}, cands, RunOptions{Explain: e.opts.Explain}, nil, st, blockSents)
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

// blockSents is the evaluation block's size: a block takes whole candidate
// documents until it holds at least this many candidate sentences, so a
// document larger than a block stays whole.
const blockSents = 64

// blockDoc is one document of a block: its candidates are the block's sids
// up to end, and, when the query aggregates, its sentences are the block's
// views from view on.
type blockDoc struct {
	doc, view, end int
}

// blockWorker is one run's private evaluation state: the reusable
// per-sentence scratch, the per-document aggregator, the current block and
// its slabs, and the forward cursor into the DPLI count tables. One exists
// per stream, so nothing here needs locks.
type blockWorker struct {
	e  *Engine
	nq *normQuery
	ro RunOptions
	ev *sentEval
	cc countCursor
	ag *aggregator // nil when the query has no satisfying/excluding clause

	// The current block. sids are its candidate sentences, ascending, and
	// sent[k] is sids[k]'s index in views: with an aggregator, views holds
	// every sentence of the block's documents (the aggregator reads them
	// all), otherwise only the candidates.
	docs  []blockDoc
	sids  []int32
	sent  []int32
	views []index.Sent
	// skips is the GSP slab: candidate k's skip plan is
	// skips[k*numVars : (k+1)*numVars]. outEnd[k] ends candidate k's
	// emissions in the sentEval arena.
	skips  []bool
	outEnd []int32

	// tuples holds the block's tuples; the next block reuses it, so a
	// consumer copies what it keeps. Their values are rendered into text,
	// value i ending at textEnd[i], and cut from one string per block.
	tuples  []Tuple
	text    []byte
	textEnd []int32

	// finishTuple scratch: the candidate value per variable slot and the
	// score per satisfying clause.
	vals   []spanValue
	scores []float64
}

func (e *Engine) newBlockWorker(nq *normQuery, dpli *dpliResult, ro RunOptions, plan *queryPlan) *blockWorker {
	w := &blockWorker{
		e:      e,
		nq:     nq,
		ro:     ro,
		ev:     newSentEval(nq, e.opts.DisableSkipPlan),
		cc:     newCountCursor(dpli, len(nq.vars)),
		vals:   make([]spanValue, len(nq.vars)),
		scores: make([]float64, len(nq.satisfying)),
	}
	if len(nq.satisfying) > 0 || len(nq.excluding) > 0 {
		w.ag = newAggregator(e.ix, &e.cols.Dict, e.model, e.opts.Dicts, e.globalScores)
	}
	w.ev.setPlan(plan)
	return w
}

// fill loads the block that starts at cands[i]: whole documents until it
// holds at least size candidate sentences. cands is sorted and DocOfSent is
// non-decreasing in sid, so each document's candidates are one contiguous
// run. It returns the index of the first candidate after the block.
func (w *blockWorker) fill(cands []int32, i, size int) int {
	cols := w.e.cols
	w.docs, w.sids, w.sent = w.docs[:0], w.sids[:0], w.sent[:0]
	w.views = slices.Grow(w.views[:0], size) // views are large: size the slab for a block at once
	for i < len(cands) && len(w.sids) < size {
		d := cols.DocOfSent[cands[i]]
		first, end := cols.DocSentences(int(d))
		bd := blockDoc{doc: int(d), view: len(w.views)}
		if w.ag != nil {
			for sid := first; sid < end; sid++ {
				w.loadView(sid)
			}
		}
		for ; i < len(cands) && cols.DocOfSent[cands[i]] == d; i++ {
			if w.ag != nil {
				w.sent = append(w.sent, int32(bd.view+int(cands[i])-first))
			} else {
				w.sent = append(w.sent, int32(len(w.views)))
				w.loadView(int(cands[i]))
			}
			w.sids = append(w.sids, cands[i])
		}
		bd.end = len(w.sids)
		w.docs = append(w.docs, bd)
	}
	return i
}

// loadView appends sentence sid's view to the slab, written in its slot.
func (w *blockWorker) loadView(sid int) {
	n := len(w.views)
	w.views = slices.Grow(w.views, 1)[:n+1]
	w.e.cols.LoadSent(&w.views[n], sid)
}

// evalBlock evaluates the loaded block phase by phase: the skip plan (GSP)
// of every sentence, then every sentence's nested loops (extract), then
// satisfying/excluding and rendering per emission. The clock is read once
// per phase boundary, so each phase's time is summed per block rather than
// per sentence; the skip-plan phase is counted only while GSP is on. It adds
// the block's counters and phase times to res and returns its tuples, which
// the next block reuses.
func (w *blockWorker) evalBlock(res *Result) []Tuple {
	ev, n := w.ev, len(w.nq.vars)
	w.skips = slices.Grow(w.skips[:0], len(w.sids)*n)[:len(w.sids)*n]
	clear(w.skips)
	t0 := time.Now()
	if !ev.gspOff {
		for k, sid := range w.sids {
			ev.planSkips(&w.views[w.sent[k]], &w.cc, sid, w.skips[k*n:(k+1)*n])
		}
	}
	t1 := time.Now()
	ev.resetOut()
	w.outEnd = w.outEnd[:0]
	for k := range w.sids {
		if ev.extract(&w.views[w.sent[k]], w.skips[k*n:(k+1)*n]) > 0 {
			res.MatchedSentences++
		}
		w.outEnd = append(w.outEnd, int32(ev.nout))
	}
	t2 := time.Now()
	w.finishBlock()
	t3 := time.Now()
	if !ev.gspOff {
		res.Times.GSP += t1.Sub(t0)
	}
	res.Times.Extract += t2.Sub(t1)
	res.Times.Satisfying += t3.Sub(t2)
	res.EvaluatedSentences += len(w.sids)
	return w.tuples
}

// finishBlock turns the block's emissions into tuples, in order, resetting
// the aggregator to each document that emitted anything.
func (w *blockWorker) finishBlock() {
	w.tuples, w.text, w.textEnd = w.tuples[:0], w.text[:0], w.textEnd[:0]
	k, i := 0, 0 // candidate, emission
	for _, bd := range w.docs {
		if w.ag != nil && i < int(w.outEnd[bd.end-1]) {
			first, end := w.e.cols.DocSentences(bd.doc)
			w.ag.reset(first, w.views[bd.view:bd.view+end-first])
		}
		for ; k < bd.end; k++ {
			s := &w.views[w.sent[k]]
			for ; i < int(w.outEnd[k]); i++ {
				w.finishTuple(s, bd.doc, w.ev.out(i))
			}
		}
	}
	if len(w.tuples) == 0 {
		return
	}
	// One string holds every value of the block, and the Values slices
	// share one slab, each capped so that appending to it copies.
	text := string(w.text)
	vals := make([]string, len(w.textEnd))
	from := int32(0)
	for j, to := range w.textEnd {
		vals[j], from = text[from:to], to
	}
	m := len(w.nq.outSlots)
	for j := range w.tuples {
		w.tuples[j].Values = vals[j*m : (j+1)*m : (j+1)*m]
	}
}

// finishTuple applies satisfying clauses (threshold) and excluding
// conditions to the assignment's spans, then — only for a surviving
// assignment — renders the output values into the block's text and appends
// the tuple, so a rejected candidate allocates nothing unless a condition
// had to read its string. The assignment is fully bound (deriveAndEmit only
// emits complete assignments), so every access is a direct slot index.
func (w *blockWorker) finishTuple(s *index.Sent, doc int, a assignment) {
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
			return
		}
	}
	for i := range nq.excluding {
		c := &nq.excluding[i]
		if c.slot >= 0 && ag.excluded(c, &w.vals[c.slot]) {
			return
		}
	}
	for _, slot := range nq.outSlots {
		if sp := w.vals[slot].sp; !sp.empty() {
			w.text = s.AppendText(w.text, sp.l, sp.r)
		}
		w.textEnd = append(w.textEnd, int32(len(w.text)))
	}
	t := Tuple{SentenceID: s.ID, Document: doc}
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
	w.tuples = append(w.tuples, t)
}

// Candidates exposes DPLI pruning alone: the candidate sentence ids for a
// query. The index experiments (§6.2.2) measure this module's lookup time
// and effectiveness across indexing schemes. The slice may be the index's
// own: callers must not write to it.
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
