// Package koko is the public API of the KOKO reproduction: a declarative
// information-extraction engine over text (Wang et al., "Scalable Semantic
// Querying of Text", VLDB 2018).
//
// KOKO queries combine three kinds of conditions in one declarative
// language: regular-expression-style conditions on the surface text,
// XPath-like conditions on the dependency parse trees of sentences, and
// semantic-similarity conditions whose evidence is aggregated across a whole
// document. A minimal session:
//
//	c := koko.NewCorpus(nil, []string{"I ate a chocolate ice cream, which was delicious."})
//	eng := koko.NewEngine(c, nil)
//	res, err := eng.Query(`
//	    extract e:Entity, d:Str from input.txt if
//	    (/ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) } (b) in (e))`)
//
// The engine indexes the corpus with the paper's multi-indexing scheme
// (word + entity inverted indices, parse-label and POS-tag hierarchy
// indices) and evaluates queries through the Normalize → DPLI → GSP →
// Aggregate pipeline.
package koko

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/embed"
	"repro/internal/koko/engine"
	"repro/internal/koko/index"
	"repro/internal/koko/index/blockstore"
	"repro/internal/koko/lang"
)

// Corpus is a parsed, sentence-id'd text corpus.
type Corpus struct {
	c *index.Corpus
}

// NewCorpus parses raw document texts into a corpus. names may be nil.
func NewCorpus(names []string, texts []string) *Corpus {
	return &Corpus{c: index.NewCorpus(names, texts)}
}

// WrapCorpus adopts an already-parsed internal corpus without re-running the
// NLP pipeline. It is the bridge the experiment harness and corpus
// generators use; regular callers should use NewCorpus.
func WrapCorpus(c *index.Corpus) *Corpus { return &Corpus{c: c} }

// NumDocuments returns the number of documents.
func (c *Corpus) NumDocuments() int { return c.c.NumDocs() }

// NumSentences returns the number of sentences.
func (c *Corpus) NumSentences() int { return c.c.NumSentences() }

// DocumentName returns the name of document i ("" if out of range).
func (c *Corpus) DocumentName(i int) string {
	if i < 0 || i >= len(c.c.Docs) {
		return ""
	}
	return c.c.Docs[i].Name
}

// Sentence renders sentence sid as text.
func (c *Corpus) Sentence(sid int) string { return c.c.Sentence(sid).String() }

// Options configures an Engine.
type Options struct {
	// Dicts supplies dictionaries for dict(...) conditions; values are
	// matched case-insensitively.
	Dicts map[string][]string
	// Ontology extends descriptor expansion with domain terms
	// ("coffee" -> cappuccino, macchiato, ...).
	Ontology map[string][]string
	// DisableSkipPlan turns off the GSP optimization (for ablations).
	DisableSkipPlan bool
	// ExpansionLimit bounds descriptor expansion (0 = default).
	ExpansionLimit int
	// Explain attaches per-condition evidence to every tuple — the
	// debuggability the paper contrasts with opaque learned extractors.
	Explain bool
}

// Engine indexes a corpus and evaluates KOKO queries against it.
//
// An Engine is safe for concurrent use: Query and Run may be called from
// multiple goroutines sharing one Engine (the cross-run regexp and
// score caches are internally synchronized). Save is also read-only with
// respect to query state.
type Engine struct {
	corpus *Corpus
	ix     *index.Index
	model  *embed.Model
	eng    *engine.Engine
	// optExplain retains the Options default so runOptions can fall back
	// to it.
	optExplain bool
}

// Corpus returns the corpus the engine was built over.
func (e *Engine) Corpus() *Corpus { return e.corpus }

// NumDocuments returns the number of documents in the engine's corpus.
func (e *Engine) NumDocuments() int { return e.corpus.NumDocuments() }

// NumSentences returns the number of sentences in the engine's corpus.
func (e *Engine) NumSentences() int { return e.corpus.NumSentences() }

// DocumentName returns the name of document i ("" if out of range).
func (e *Engine) DocumentName(i int) string { return e.corpus.DocumentName(i) }

// NumShards reports 1: a plain Engine is a single shard. The method makes
// Engine and ShardedEngine interchangeable behind Querier.
func (e *Engine) NumShards() int { return 1 }

// ShardStats describes the engine as a one-shard set (shard 0 covering the
// whole corpus), mirroring ShardedEngine.ShardStats.
func (e *Engine) ShardStats() []ShardStat {
	return []ShardStat{{
		Shard:     0,
		Documents: e.corpus.NumDocuments(),
		Sentences: e.corpus.NumSentences(),
		Index:     e.Stats(),
	}}
}

// NewEngine builds the multi-index over the corpus and returns an engine.
// opts may be nil.
func NewEngine(c *Corpus, opts *Options) *Engine {
	if opts == nil {
		opts = &Options{}
	}
	model, dicts := deriveModelDicts(opts)
	return assembleEngine(c, index.Build(c.c), model, dicts, opts)
}

// deriveModelDicts materializes the similarity model and lowercased
// dictionaries an Options describes. Both are read-only once built, so one
// derivation can be shared across engines (the mutable layer reuses them
// for every sealed delta engine).
func deriveModelDicts(opts *Options) (*embed.Model, map[string]map[string]bool) {
	model := embed.NewModel()
	for term, rel := range opts.Ontology {
		model.AddOntology(term, rel)
	}
	dicts := map[string]map[string]bool{}
	for name, vals := range opts.Dicts {
		m := map[string]bool{}
		for _, v := range vals {
			m[strings.ToLower(v)] = true
		}
		dicts[name] = m
	}
	return model, dicts
}

// assembleEngine wires an already-built index and corpus into an Engine —
// the one constructor behind NewEngine, store loading, and sealed delta
// views.
func assembleEngine(c *Corpus, ix *index.Index, model *embed.Model, dicts map[string]map[string]bool, opts *Options) *Engine {
	e := &Engine{corpus: c, ix: ix, model: model, optExplain: opts.Explain}
	e.eng = engine.New(c.c, ix, model, engine.Options{
		DisableSkipPlan: opts.DisableSkipPlan,
		ExpansionLimit:  opts.ExpansionLimit,
		Dicts:           dicts,
		Explain:         opts.Explain,
	})
	return e
}

// The tuple, evidence, phase and plan types are the engine's own: a tuple
// crosses every layer from the per-document evaluation loop to the HTTP edge
// without being copied into another type.
type (
	// Tuple is one output row of a query: the corpus-global SentenceID and
	// Document it came from, the output Values in declaration order, the
	// satisfying-clause Scores per satisfying variable, and, when
	// Options.Explain is set, the Evidence behind those scores.
	Tuple = engine.Tuple
	// Evidence is one row of an extraction explanation: a satisfying
	// condition with its confidence, weight, and contribution to the final
	// score.
	Evidence = engine.CondEvidence
	// PhaseTimes is the per-phase execution breakdown of a query (the
	// paper's Table 2 columns, plus the planner's own phase).
	PhaseTimes = engine.PhaseTimes
	// PlanStep is one step of the planner's chosen evaluation order: the
	// condition variable, its kind, the DPLI binding estimate that ranked
	// it, and the actual candidate bindings observed during evaluation.
	PlanStep = engine.PlanStep
	// PlanInfo reports the statistics-free planner's decision for a query:
	// the condition evaluation order (smallest estimated binding set first,
	// respecting variable-binding dependencies) and whether that order
	// differs from the written order.
	PlanInfo = engine.PlanInfo
)

// Result is the outcome of a query.
type Result struct {
	Tuples []Tuple
	// Candidates / Matched report index pruning: how many sentences
	// survived the index lookup and how many produced extractions.
	Candidates int
	Matched    int
	// Elapsed is the total evaluation time.
	Elapsed time.Duration
	// Phases breaks Elapsed into the pipeline's phases. Over several
	// shards each phase is summed across shards, so with shards evaluating
	// concurrently it reports CPU time, not wall time.
	Phases PhaseTimes
	// Plan reports the planner's chosen condition order and estimated vs
	// actual bindings. Nil when the query short-circuited before
	// extraction.
	Plan *PlanInfo
}

// QueryOptions overrides per-query evaluation knobs; the zero value falls
// back to the engine's Options for each field.
type QueryOptions struct {
	// Explain attaches per-condition evidence to this query's tuples.
	Explain bool
	// Deprecated: Workers is read by nothing. A query parallelizes only
	// across shards (ShardedEngine.SetParallelism). Kept for callers that
	// still set it.
	Workers int
	// Degraded lets an engine with failure domains (remote.Engine) answer
	// from whatever shards survive: a failed shard is skipped and reported
	// through TupleSeq.FailedShards instead of failing the query. Engines
	// whose shards cannot fail independently ignore it.
	Degraded bool
	// noPlan evaluates conditions in written order instead of the
	// planner's order: the oracle for this package's planner differentials.
	noPlan bool
}

// ParsedQuery is a parsed, reusable KOKO query. Parsing once and running
// many times avoids re-parsing on hot paths (the server does this to share
// one parse between cache keying and evaluation).
type ParsedQuery struct {
	q     *lang.Query
	canon string
}

// ParseQuery parses a KOKO query without running it. The parsed AST is
// canonicalized (order-independent clauses sorted into a canonical order,
// see lang.Query.Canonicalize), so two queries differing only in the order
// of independent conditions parse to the same canonical text and evaluate
// identically — result caches keyed on Canonical() are plan-invariant.
func ParseQuery(src string) (*ParsedQuery, error) {
	q, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	q = q.Canonicalize()
	return &ParsedQuery{q: q, canon: q.String()}, nil
}

// Canonical returns the query's canonical rendering: two queries differing
// only in whitespace or formatting canonicalize identically.
func (p *ParsedQuery) Canonical() string { return p.canon }

// Query parses and evaluates a KOKO query with the engine's options.
func (e *Engine) Query(src string) (*Result, error) { return query(e, src, nil) }

// runOptions resolves per-query overrides against the engine's defaults —
// the one translation from the public QueryOptions to the internal run knobs.
func (e *Engine) runOptions(ctx context.Context, qo *QueryOptions) engine.RunOptions {
	ro := engine.RunOptions{Explain: e.optExplain, Ctx: ctx}
	if qo != nil {
		ro.Explain = ro.Explain || qo.Explain
		ro.NoPlan = qo.noPlan
	}
	return ro
}

// Run evaluates an already-parsed query as a lazy stream: a plain Engine
// is a one-shard StreamShards over its own StreamShard, so tuples yield in
// document order as candidate documents are evaluated, followed by the
// shard-0 end marker carrying the run's counters. A done ctx stops the
// evaluation between documents and surfaces through TupleSeq.Err. qo may be
// nil (engine defaults). Safe for concurrent use; each call returns an
// independent single-use stream.
func (e *Engine) Run(ctx context.Context, p *ParsedQuery, qo *QueryOptions) (*TupleSeq, error) {
	return StreamShards(ctx, 1, 1, func(ctx context.Context, shard int, emit func([]Tuple) error) (*Result, error) {
		return e.StreamShard(ctx, shard, p, qo, emit)
	}, false), nil
}

// StreamShard evaluates one shard of the corpus, delivering tuples through
// emit in bounded batches (document order, global coordinates — a plain
// Engine is a single shard, so no rebasing applies) and returning the
// shard's counters-only summary. Each emitted slice is freshly allocated
// and owned by the receiver. An emit error stops the evaluation and is
// returned as-is.
func (e *Engine) StreamShard(ctx context.Context, shard int, p *ParsedQuery, qo *QueryOptions, emit func(tuples []Tuple) error) (*Result, error) {
	if shard != 0 {
		return nil, fmt.Errorf("koko: shard %d out of range (plain engine has 1 shard)", shard)
	}
	st, err := e.eng.Stream(p.q, e.runOptions(ctx, qo))
	if err != nil {
		return nil, err
	}
	var batch []Tuple
	limit := streamFirstBatchTuples
	for docTuples := range st.Docs() {
		batch = append(batch, docTuples...)
		if len(batch) >= limit {
			if err := emit(batch); err != nil {
				return nil, err
			}
			batch = nil
			limit = streamBatchTuples
		}
	}
	if err := st.Err(); err != nil {
		return nil, err
	}
	if len(batch) > 0 {
		if err := emit(batch); err != nil {
			return nil, err
		}
	}
	return summaryFromEngine(st.Result()), nil
}

// summaryFromEngine converts the internal engine result's counters, phase
// times, and plan report to the public form — everything but the tuple
// table, which the streaming path has already delivered.
func summaryFromEngine(res *engine.Result) *Result {
	return &Result{
		Candidates: res.CandidateSentences,
		Matched:    res.MatchedSentences,
		Elapsed:    res.Times.Total(),
		Phases:     res.Times,
		Plan:       res.Plan,
	}
}

// Validate parses a query without running it, returning a descriptive error
// for malformed input.
func Validate(src string) error {
	_, err := lang.Parse(src)
	return err
}

// Canonical parses a query and renders it back in canonical form: two
// queries differing only in whitespace, comments, or clause formatting
// canonicalize identically. Result caches key on this text.
func Canonical(src string) (string, error) {
	p, err := ParseQuery(src)
	if err != nil {
		return "", err
	}
	return p.Canonical(), nil
}

// IndexStats summarizes the built multi-index.
type IndexStats struct {
	Words          int
	Entities       int
	PLNodes        int
	POSNodes       int
	PLCompression  float64 // fraction of tree nodes merged away
	POSCompression float64
}

// Stats reports index shape.
func (e *Engine) Stats() IndexStats {
	st := e.ix.Stats()
	return IndexStats{
		Words: st.Words, Entities: st.Entities,
		PLNodes: st.PLNodes, POSNodes: st.POSNodes,
		PLCompression: st.PLCompression, POSCompression: st.POSCompression,
	}
}

// StoreFormat names an on-disk store format. The KOKOBS1 block store is the
// only one.
//
// Deprecated: every Save writes the block store; the type survives only as
// ShardedEngine.SaveAs's argument.
type StoreFormat int

// FormatBlock is the KOKOBS1 block store.
//
// Deprecated: see StoreFormat.
const FormatBlock StoreFormat = 0

// Save persists the parsed corpus and all indices to path as a KOKOBS1
// block store (the paper's offline index construction; see Load): posting
// lists laid out as sorted fixed-size blocks, mmap'd at load time and
// decoded lazily into a budgeted shared cache. A block-backed engine (one
// opened from a store) has no heap-resident posting lists, so its index is
// rebuilt from the corpus first.
func (e *Engine) Save(path string) error {
	ix := e.ix
	if ix.Source() != nil {
		ix = index.Build(e.corpus.c)
	}
	return blockstore.Write(path, e.corpus.c, ix)
}

// Load reopens an engine from a block store written by Engine.Save: the
// corpus is decoded into memory (query evaluation walks sentences freely)
// but posting lists stay on disk behind the mmap reader, decoded
// block-by-block into the shared cache as queries touch them. For a file
// that may be either a store or a sharded manifest, use Open.
func Load(path string, opts *Options) (*Engine, error) {
	r, err := blockstore.Open(path)
	if err != nil {
		return nil, err
	}
	if opts == nil {
		opts = &Options{}
	}
	model, dicts := deriveModelDicts(opts)
	return assembleEngine(&Corpus{c: r.Corpus()}, r.NewIndex(), model, dicts, opts), nil
}

// Open reopens any persisted store: a block store yields an *Engine, a
// sharded manifest (written by ShardedEngine.Save) yields a *ShardedEngine.
func Open(path string, opts *Options) (Querier, error) {
	return OpenWithShards(path, opts, 1)
}

// OpenWithShards reopens a persisted store like Open but, for k > 1,
// re-partitions a plain store into k doc-range shards. Only the parsed
// corpus is read in that case — the plain store's single index is never
// assembled just to be thrown away; the per-shard indices are built
// directly. A sharded manifest keeps its on-disk shard count regardless
// of k.
func OpenWithShards(path string, opts *Options, k int) (Querier, error) {
	if !blockstore.IsBlockStore(path) {
		m, err := readManifest(path)
		if err != nil {
			return nil, err
		}
		se, err := openShardSet(path, m, opts)
		if err != nil {
			return nil, err
		}
		return se, nil
	}
	if k <= 1 {
		return Load(path, opts)
	}
	// Re-sharding rebuilds per-shard indices from the corpus, so only the
	// corpus is needed; close the reader immediately (decoded corpus
	// strings are heap-owned, not mmap-backed).
	r, err := blockstore.Open(path)
	if err != nil {
		return nil, err
	}
	c := r.Corpus()
	r.Close()
	return NewShardedEngine(&Corpus{c: c}, k, opts), nil
}
