package koko

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/koko/index"
)

// Querier is the query surface shared by Engine, Snapshot, and
// remote.Engine: a registry (or any caller) can hold any of them behind one
// type and route queries without knowing whether the corpus is mutable or
// distributed.
//
// Run is the one evaluation method: context-first, returning a lazy
// TupleSeq whose memory is bounded by batching rather than result size; a
// buffered Result is Run + TupleSeq.Collect. StreamShard is the per-shard
// unit beneath Run: exactly one shard evaluated as a stream of bounded
// batches (the progress unit of the server's job executor and of the
// remote shard-eval protocol).
type Querier interface {
	// Run evaluates an already-parsed query as a single-use lazy stream of
	// tuples in global document order with per-shard end markers. qo may be
	// nil. A non-nil error means the query never started (parse-adjacent
	// failures, pre-cancelled ctx); errors during evaluation surface
	// through TupleSeq.Err after iteration.
	Run(ctx context.Context, p *ParsedQuery, qo *QueryOptions) (*TupleSeq, error)
	// StreamShard evaluates exactly one shard, delivering tuples through
	// emit in bounded batches already in global coordinates, and returns
	// the shard's counters-only summary.
	StreamShard(ctx context.Context, shard int, p *ParsedQuery, qo *QueryOptions, emit func(Batch) error) (*Result, error)

	NumShards() int
	NumDocuments() int
	NumSentences() int
	ShardStats() []ShardStat
}

var _ Querier = (*Engine)(nil)

// ShardStat describes one shard of a corpus: its size and index shape.
type ShardStat struct {
	Shard     int        `json:"shard"`
	Documents int        `json:"documents"`
	Sentences int        `json:"sentences"`
	Tokens    int        `json:"tokens,omitempty"`
	Index     IndexStats `json:"index"`
	// Delta marks a mutable corpus's sealed delta riding along as the last
	// shard (see Snapshot.ShardStats).
	Delta bool `json:"delta,omitempty"`
}

// mergePlanInfo folds one shard's plan report into the merged result: the
// first shard with a plan sets the step order (every shard plans the same
// canonical query over per-shard statistics, so orders can differ — the
// merged view keys steps by variable), then estimated and actual binding
// counts sum per variable and Reordered ORs across shards.
func mergePlanInfo(out *Result, p *PlanInfo) {
	if p == nil {
		return
	}
	if out.Plan == nil {
		pi := &PlanInfo{Reordered: p.Reordered, Steps: append([]PlanStep(nil), p.Steps...)}
		out.Plan = pi
		return
	}
	out.Plan.Reordered = out.Plan.Reordered || p.Reordered
	byVar := make(map[string]int, len(out.Plan.Steps))
	for i, st := range out.Plan.Steps {
		byVar[st.Var] = i
	}
	for _, st := range p.Steps {
		if i, ok := byVar[st.Var]; ok {
			out.Plan.Steps[i].Estimated += st.Estimated
			out.Plan.Steps[i].Actual += st.Actual
		} else {
			out.Plan.Steps = append(out.Plan.Steps, st)
		}
	}
}

// Engine indexes a corpus and evaluates KOKO queries against it. The
// corpus is a set of contiguous doc-range shards — one for NewEngine and
// Open of a plain store — each with its own multi-index and evaluator.
// Queries fan out to every shard on a bounded worker pool and merge back in
// global document order, byte-identical to one shard over the whole corpus
// (modulo timing fields).
//
// An Engine is safe for concurrent use: Query and Run may be called from
// multiple goroutines sharing one Engine (the cross-run regexp and score
// caches are internally synchronized). Save is also read-only with respect
// to query state.
type Engine struct {
	shards []*leaf
	specs  []index.ShardSpec
	// parallel bounds how many shards evaluate at once for one query;
	// atomic so SetParallelism can retune a served engine mid-flight.
	parallel atomic.Int32
}

// NewEngine builds the multi-index over the whole corpus as one shard and
// returns its engine. opts may be nil.
func NewEngine(c *Corpus, opts *Options) *Engine {
	return oneShard(buildLeaf(index.ColumnsOf(c.c), opts))
}

// oneShard wraps a leaf as a one-shard engine covering its whole corpus.
func oneShard(l *leaf) *Engine {
	return newSharded([]*leaf{l}, []index.ShardSpec{{HiDoc: l.c.NumDocs(), NumSents: l.c.NumSentences(), Tokens: l.c.NumTokens()}})
}

// NewShardedEngine partitions c into (at most) k token-balanced doc-range
// shards and builds a per-shard index over each. opts may be nil and is
// applied to every shard. Corpora with fewer than k documents get one shard
// per document; a single shard is NewEngine.
func NewShardedEngine(c *Corpus, k int, opts *Options) *Engine {
	return shardColumns(index.ColumnsOf(c.c), k, opts)
}

// shardColumns is NewShardedEngine over columns.
func shardColumns(c *index.Columns, k int, opts *Options) *Engine {
	specs := index.PartitionDocs(c, k)
	if len(specs) == 1 {
		return oneShard(buildLeaf(c, opts))
	}
	shards := make([]*leaf, len(specs))
	// Shards are independent, so their indices build concurrently (bounded
	// by GOMAXPROCS) — this is what keeps registry load/reload latency flat
	// as the shard count grows.
	sem := make(chan struct{}, buildParallelism(len(specs)))
	var wg sync.WaitGroup
	for i, sp := range specs {
		wg.Add(1)
		go func(i int, sp index.ShardSpec) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			shards[i] = buildLeaf(index.ShardCorpus(c, sp), opts)
		}(i, sp)
	}
	wg.Wait()
	return newSharded(shards, specs)
}

func buildParallelism(n int) int {
	if max := runtime.GOMAXPROCS(0); n > max {
		n = max
	}
	if n < 1 {
		n = 1
	}
	return n
}

func newSharded(shards []*leaf, specs []index.ShardSpec) *Engine {
	e := &Engine{shards: shards, specs: specs}
	e.parallel.Store(int32(buildParallelism(len(shards))))
	return e
}

// SetParallelism bounds how many shards evaluate concurrently per query
// (default: min(shards, GOMAXPROCS)). n < 1 means sequential. Safe to call
// while queries are in flight; in-flight fan-outs keep the bound they read.
func (e *Engine) SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	e.parallel.Store(int32(n))
}

// Parallelism reports the current per-query shard fan-out bound.
func (e *Engine) Parallelism() int { return int(e.parallel.Load()) }

// NumShards returns the shard count.
func (e *Engine) NumShards() int { return len(e.shards) }

// NumDocuments sums document counts across shards.
func (e *Engine) NumDocuments() int {
	n := 0
	for _, s := range e.shards {
		n += s.c.NumDocs()
	}
	return n
}

// NumSentences sums sentence counts across shards.
func (e *Engine) NumSentences() int {
	n := 0
	for _, s := range e.shards {
		n += s.c.NumSentences()
	}
	return n
}

// DocumentName resolves a global document index to its name ("" if out of
// range).
func (e *Engine) DocumentName(i int) string {
	for si, sp := range e.specs {
		if i >= sp.LoDoc && i < sp.HiDoc {
			return e.shards[si].c.Docs[i-sp.LoDoc].Name
		}
	}
	return ""
}

// Query parses and evaluates a KOKO query with the engine's options.
func (e *Engine) Query(src string) (*Result, error) { return query(e, src, nil) }

// Run fans an already-parsed query out across shards (bounded by the
// engine's parallelism) as a lazy stream: each shard delivers bounded
// batches into the K-way ordered merge, so tuples yield in global document
// order — the first shard's first documents stream out while later shards
// are still evaluating — and memory stays bounded regardless of result
// size. Each shard evaluates its documents in order; the shard fan-out,
// bounded by SetParallelism, is the query's only parallelism. A done ctx
// stops the evaluation between documents and surfaces through
// TupleSeq.Err. qo may be nil (engine defaults). Safe for concurrent use;
// each call returns an independent single-use stream.
func (e *Engine) Run(ctx context.Context, p *ParsedQuery, qo *QueryOptions) (*TupleSeq, error) {
	return StreamShards(ctx, len(e.shards), int(e.parallel.Load()),
		func(ctx context.Context, shard int, emit func(Batch) error) (*Result, error) {
			return e.StreamShard(ctx, shard, p, qo, emit)
		}, false), nil
}

// StreamShard evaluates shard i only, delivering its tuples through emit in
// bounded batches already rebased to global document and sentence ids, and
// returns the shard's counters-only summary. Each emitted batch's tuples
// are freshly allocated and owned by the receiver. The unit beneath Run's
// fan-out and the chunked delivery of remote workers.
func (e *Engine) StreamShard(ctx context.Context, shard int, p *ParsedQuery, qo *QueryOptions, emit func(Batch) error) (*Result, error) {
	if shard < 0 || shard >= len(e.shards) {
		return nil, fmt.Errorf("koko: shard %d out of range (engine has %d)", shard, len(e.shards))
	}
	docOff, sentOff := e.specs[shard].LoDoc, e.specs[shard].FirstSID
	return e.shards[shard].stream(ctx, p, qo, func(ts []Tuple) error {
		for k := range ts {
			ts[k].Document += docOff
			ts[k].SentenceID += sentOff
		}
		return emit(BatchOf(ts))
	})
}

// Stats sums index statistics across shards. Counts are per-shard sizes
// added up: a word indexed in every shard contributes once per shard, so
// the sum reflects total index footprint rather than distinct terms.
// Compression ratios are averaged weighted by node count.
func (e *Engine) Stats() IndexStats {
	return MergeShardStats(e.ShardStats())
}

// MergeShardStats aggregates per-shard index statistics into one summary
// (summed sizes, node-count-weighted compression ratios). Callers that
// already hold a ShardStats slice should aggregate it with this instead of
// calling Stats again — each per-shard stat costs a full index walk.
func MergeShardStats(ss []ShardStat) IndexStats {
	var out IndexStats
	var plW, posW float64
	for _, s := range ss {
		st := s.Index
		out.Words += st.Words
		out.Entities += st.Entities
		out.PLNodes += st.PLNodes
		out.POSNodes += st.POSNodes
		plW += st.PLCompression * float64(st.PLNodes)
		posW += st.POSCompression * float64(st.POSNodes)
	}
	if out.PLNodes > 0 {
		out.PLCompression = plW / float64(out.PLNodes)
	}
	if out.POSNodes > 0 {
		out.POSCompression = posW / float64(out.POSNodes)
	}
	return out
}

// ShardStats reports per-shard sizes and index shapes in shard order.
func (e *Engine) ShardStats() []ShardStat {
	out := make([]ShardStat, len(e.shards))
	for i, s := range e.shards {
		out[i] = ShardStat{
			Shard:     i,
			Documents: s.c.NumDocs(),
			Sentences: s.c.NumSentences(),
			Tokens:    e.specs[i].Tokens,
			Index:     s.stats(),
		}
	}
	return out
}

// withShard returns a new engine over e's shards followed by l, rebased
// after e's last document and sentence.
func (e *Engine) withShard(l *leaf) *Engine {
	nd, ns := e.NumDocuments(), e.NumSentences()
	spec := index.ShardSpec{LoDoc: nd, HiDoc: nd + l.c.NumDocs(), FirstSID: ns, NumSents: l.c.NumSentences()}
	return newSharded(append(e.shards[:len(e.shards):len(e.shards)], l), append(e.specs[:len(e.specs):len(e.specs)], spec))
}

// shardFileName names shard i's store relative to the manifest. The suffix
// deliberately does not end in ".koko" so directory scans for *.koko pick
// up only the manifest.
func shardFileName(base string, i int) string {
	return fmt.Sprintf("%s.shard%d", base, i)
}

// Save persists the engine to path. One shard writes a plain KOKOBS2
// block store (see Open). More shards make path a small JSON manifest with
// each shard's complete stand-alone block store next to it as
// path.shard<i>; Open the set back with Open on the manifest path.
func (e *Engine) Save(path string) error {
	if len(e.shards) == 1 {
		return e.shards[0].save(path)
	}
	base := filepath.Base(path)
	files := make([]string, len(e.shards))
	for i, s := range e.shards {
		files[i] = shardFileName(base, i)
		if err := s.save(filepath.Join(filepath.Dir(path), files[i])); err != nil {
			return fmt.Errorf("koko: save shard %d: %w", i, err)
		}
	}
	return writeManifest(path, newManifest(files, e.specs))
}

// SaveAs is Save.
//
// Deprecated: the block store is the only format; use Save.
func (e *Engine) SaveAs(path string, _ StoreFormat) error { return e.Save(path) }

// openShardSet opens each shard store named by m, the manifest read from
// path, in parallel, checks it against its spec, and assembles the set.
// Shared by the manifest and durable open paths.
func openShardSet(path string, m manifest, opts *Options) (*Engine, error) {
	dir := filepath.Dir(path)
	shards := make([]*leaf, len(m.Shards))
	sem := make(chan struct{}, buildParallelism(len(shards)))
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for i, sh := range m.Shards {
		wg.Add(1)
		go func(i int, sh manifestShard) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			s, err := loadLeaf(filepath.Join(dir, sh.File), opts)
			if err == nil {
				// A shard file that disagrees with its manifest spec would
				// silently rebase tuples onto the wrong global ids; refuse it.
				if s.c.NumDocs() != sh.HiDoc-sh.LoDoc || s.c.NumSentences() != sh.NumSents {
					err = fmt.Errorf("shard file %s has %d docs/%d sents, manifest expects %d/%d",
						sh.File, s.c.NumDocs(), s.c.NumSentences(), sh.HiDoc-sh.LoDoc, sh.NumSents)
				}
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("koko: load shard %d of %s: %w", i, path, err)
				}
				mu.Unlock()
				return
			}
			shards[i] = s
		}(i, sh)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return newSharded(shards, m.specs()), nil
}
