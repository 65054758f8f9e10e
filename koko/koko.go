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
//
// Engine is the one local engine: a set of contiguous doc-range shards,
// each with its own multi-index — one shard from NewEngine or Open of a
// plain store, K from NewShardedEngine or Open of a manifest. Three types
// answer queries behind the Querier interface: Engine, the Snapshot a
// Mutable corpus publishes (its base engine's shards plus the sealed delta
// as one more shard, minus tombstoned documents), and remote.Engine, whose
// shards evaluate on worker nodes. All three merge their shards through
// the same ordered fan-out (StreamShards), so a query's answer does not
// depend on how the corpus is split.
package koko

import (
	"context"
	"iter"
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
	// Explain attaches per-condition evidence to every tuple — the
	// debuggability the paper contrasts with opaque learned extractors.
	Explain bool
}

// leaf is one shard's engine: the columns of its shard-local documents and
// sentences, its multi-index, and the evaluator over both. An Engine is a
// set of leaves; a leaf is never served on its own.
type leaf struct {
	c   *index.Columns
	ix  *index.Index
	eng *engine.Engine
	// optExplain retains the Options default so runOptions can fall back
	// to it.
	optExplain bool
}

// buildLeaf builds the multi-index over c and returns its leaf. opts may be
// nil.
func buildLeaf(c *index.Columns, opts *Options) *leaf {
	if opts == nil {
		opts = &Options{}
	}
	model, dicts := deriveModelDicts(opts)
	return newLeaf(c, index.BuildColumns(c), model, dicts, opts)
}

// deriveModelDicts materializes the similarity model and lowercased
// dictionaries an Options describes. Both are read-only once built, so one
// derivation can be shared across leaves (the mutable layer reuses them
// for every sealed delta).
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

// newLeaf wires an already-built index and columns into a leaf — the one
// constructor behind building, store loading, and sealed deltas.
func newLeaf(c *index.Columns, ix *index.Index, model *embed.Model, dicts map[string]map[string]bool, opts *Options) *leaf {
	return &leaf{c: c, ix: ix, optExplain: opts.Explain, eng: engine.NewColumns(c, ix, model, engine.Options{
		Dicts:   dicts,
		Explain: opts.Explain,
	})}
}

// The tuple, evidence, phase and plan types are the engine's own: a tuple
// crosses every layer from the block evaluation loop to the HTTP edge
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
	// across shards (Engine.SetParallelism). Kept for callers that
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

// runOptions resolves per-query overrides against the leaf's defaults —
// the one translation from the public QueryOptions to the internal run knobs.
func (l *leaf) runOptions(ctx context.Context, qo *QueryOptions) engine.RunOptions {
	ro := engine.RunOptions{Explain: l.optExplain, Ctx: ctx}
	if qo != nil {
		ro.Explain = ro.Explain || qo.Explain
		ro.NoPlan = qo.noPlan
	}
	return ro
}

// stream evaluates the leaf, delivering tuples through emit in bounded
// batches (document order, shard-local coordinates) and returning its
// counters-only summary. Each emitted slice is freshly allocated and owned
// by the receiver. An emit error stops the evaluation and is returned
// as-is.
func (l *leaf) stream(ctx context.Context, p *ParsedQuery, qo *QueryOptions, emit func(tuples []Tuple) error) (*Result, error) {
	st, err := l.eng.Stream(p.q, l.runOptions(ctx, qo))
	if err != nil {
		return nil, err
	}
	tail, err := batchDocs(st.Docs(), emit)
	if err == nil {
		err = st.Err()
	}
	if err == nil && len(tail) > 0 {
		err = emit(tail)
	}
	if err != nil {
		return nil, err
	}
	return summaryFromEngine(st.Result()), nil
}

// batchDocs gathers the engine's per-block tuples into batches and emits
// every full one, returning the unfilled tail. The first batch is full at
// streamFirstBatchTuples, later ones at streamBatchTuples; each is
// allocated once at its limit and never grows: a block's tuples that
// overflow it start the next batch.
func batchDocs(docs iter.Seq[[]Tuple], emit func(tuples []Tuple) error) ([]Tuple, error) {
	var batch []Tuple
	limit := streamFirstBatchTuples
	for ts := range docs {
		for len(ts) > 0 {
			if batch == nil {
				batch = make([]Tuple, 0, limit)
			}
			n := min(len(ts), limit-len(batch))
			batch, ts = append(batch, ts[:n]...), ts[n:]
			if len(batch) == limit {
				if err := emit(batch); err != nil {
					return nil, err
				}
				batch, limit = nil, streamBatchTuples
			}
		}
	}
	return batch, nil
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

// stats reports the leaf's index shape.
func (l *leaf) stats() IndexStats {
	st := l.ix.Stats()
	return IndexStats{
		Words: st.Words, Entities: st.Entities,
		PLNodes: st.PLNodes, POSNodes: st.POSNodes,
		PLCompression: st.PLCompression, POSCompression: st.POSCompression,
	}
}

// StoreFormat names an on-disk store format. The KOKOBS2 block store is the
// only one.
//
// Deprecated: every Save writes the block store; the type survives only as
// Engine.SaveAs's argument.
type StoreFormat int

// FormatBlock is the KOKOBS2 block store.
//
// Deprecated: see StoreFormat.
const FormatBlock StoreFormat = 0

// save persists the leaf's columns and indices to path as a KOKOBS2 block
// store (the paper's offline index construction): posting lists laid out as
// sorted fixed-size blocks, mmap'd at load time and decoded lazily into a
// budgeted shared cache. A block-backed leaf (one opened from a store) has
// no heap-resident posting lists, so its index is rebuilt from the columns
// first.
func (l *leaf) save(path string) error {
	ix := l.ix
	if ix.Source() != nil {
		ix = index.BuildColumns(l.c)
	}
	return blockstore.WriteColumns(path, l.c, ix)
}

// loadLeaf reopens a leaf from a block store: the corpus is decoded into
// token columns in memory (query evaluation walks sentences freely) but
// posting lists stay on disk behind the mmap reader, decoded block-by-block
// into the shared cache as queries touch them. opts may be nil.
func loadLeaf(path string, opts *Options) (*leaf, error) {
	r, err := blockstore.Open(path)
	if err != nil {
		return nil, err
	}
	if opts == nil {
		opts = &Options{}
	}
	model, dicts := deriveModelDicts(opts)
	return newLeaf(r.Columns(), r.NewIndex(), model, dicts, opts), nil
}

// Open reopens any persisted store: a block store as a one-shard Engine, a
// manifest (written by Save of a multi-shard Engine) as its shard set.
func Open(path string, opts *Options) (*Engine, error) {
	return OpenWithShards(path, opts, 1)
}

// OpenWithShards reopens a persisted store like Open but, for k > 1,
// re-partitions a plain store into k doc-range shards. Only the parsed
// corpus is read in that case — the plain store's single index is never
// assembled just to be thrown away; the per-shard indices are built
// directly. A manifest keeps its on-disk shard count regardless of k.
func OpenWithShards(path string, opts *Options, k int) (*Engine, error) {
	if !blockstore.IsBlockStore(path) {
		m, err := readManifest(path)
		if err != nil {
			return nil, err
		}
		return openShardSet(path, m, opts)
	}
	if k <= 1 {
		l, err := loadLeaf(path, opts)
		if err != nil {
			return nil, err
		}
		return oneShard(l), nil
	}
	// Re-sharding rebuilds per-shard indices from the columns, so only the
	// columns are needed; close the reader immediately (decoded dictionary
	// strings are heap-owned, not mmap-backed).
	r, err := blockstore.Open(path)
	if err != nil {
		return nil, err
	}
	c := r.Columns()
	r.Close()
	return shardColumns(c, k, opts), nil
}
