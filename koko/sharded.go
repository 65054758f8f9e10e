package koko

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/koko/index"
	"repro/internal/koko/index/blockstore"
	"repro/internal/store"
)

// Querier is the query surface shared by Engine, ShardedEngine, Snapshot,
// and remote.Engine: a registry (or any caller) can hold any of them behind
// one type and route queries without knowing whether the corpus is
// partitioned, mutable, or distributed.
//
// Run is the one evaluation method: context-first, returning a lazy
// TupleSeq whose memory is bounded by batching rather than result size; a
// buffered Result is Run + TupleSeq.Collect, which is all Query does.
// StreamShard is the per-shard unit beneath Run: exactly one shard evaluated
// as a stream of bounded batches (the progress unit of the server's job
// executor and of the remote shard-eval protocol).
type Querier interface {
	// Query parses src and collects its Run with the engine's defaults.
	Query(src string) (*Result, error)
	// Run evaluates an already-parsed query as a single-use lazy stream of
	// tuples in global document order with per-shard end markers. qo may be
	// nil. A non-nil error means the query never started (parse-adjacent
	// failures, pre-cancelled ctx); errors during evaluation surface
	// through TupleSeq.Err after iteration.
	Run(ctx context.Context, p *ParsedQuery, qo *QueryOptions) (*TupleSeq, error)
	// StreamShard evaluates exactly one shard, delivering tuples through
	// emit in bounded batches already in global coordinates, and returns
	// the shard's counters-only summary.
	StreamShard(ctx context.Context, shard int, p *ParsedQuery, qo *QueryOptions, emit func(tuples []Tuple) error) (*Result, error)

	Stats() IndexStats
	ShardStats() []ShardStat
	Save(path string) error
	NumDocuments() int
	NumSentences() int
	NumShards() int
	DocumentName(i int) string
}

var (
	_ Querier = (*Engine)(nil)
	_ Querier = (*ShardedEngine)(nil)
)

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

// MergeResults concatenates per-shard results in the order given. Every
// Querier emits tuples already in global coordinates, shards cover
// ascending doc ranges, and each shard emits in document order, so the
// concatenation is in global document order. Phase times and Elapsed are
// summed across shards (CPU time, as with Workers > 1); callers that want
// fan-out wall time overwrite Elapsed afterwards. Nil entries are skipped.
func MergeResults(parts []*Result) *Result {
	out := &Result{}
	for _, r := range parts {
		if r == nil {
			continue
		}
		out.Tuples = append(out.Tuples, r.Tuples...)
		mergeResultInto(out, r)
	}
	return out
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

// ShardedEngine partitions a corpus into doc-range shards, each with its own
// multi-index and engine, and evaluates queries by fanning the parsed query
// out to every shard on a bounded worker pool, then merging the partial
// results back in global document order. Results are byte-identical to a
// single Engine over the unpartitioned corpus (modulo timing fields).
//
// Like Engine, a ShardedEngine is safe for concurrent use.
type ShardedEngine struct {
	shards []*Engine
	specs  []index.ShardSpec
	// parallel bounds how many shards evaluate at once for one query;
	// atomic so SetParallelism can retune a served engine mid-flight.
	parallel atomic.Int32
}

// NewShardedEngine partitions c into (at most) k token-balanced doc-range
// shards and builds a per-shard engine over each. opts may be nil and is
// applied to every shard. Corpora with fewer than k documents get one shard
// per document.
func NewShardedEngine(c *Corpus, k int, opts *Options) *ShardedEngine {
	specs := index.PartitionDocs(c.c, k)
	shards := make([]*Engine, len(specs))
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
			shards[i] = NewEngine(&Corpus{c: index.ShardCorpus(c.c, sp)}, opts)
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

func newSharded(shards []*Engine, specs []index.ShardSpec) *ShardedEngine {
	e := &ShardedEngine{shards: shards, specs: specs}
	e.parallel.Store(int32(buildParallelism(len(shards))))
	return e
}

// SetParallelism bounds how many shards evaluate concurrently per query
// (default: min(shards, GOMAXPROCS)). n < 1 means sequential. Safe to call
// while queries are in flight; in-flight fan-outs keep the bound they read.
func (e *ShardedEngine) SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	e.parallel.Store(int32(n))
}

// Parallelism reports the current per-query shard fan-out bound.
func (e *ShardedEngine) Parallelism() int { return int(e.parallel.Load()) }

// NumShards returns the shard count.
func (e *ShardedEngine) NumShards() int { return len(e.shards) }

// Shard returns shard i's engine (for inspection and tests).
func (e *ShardedEngine) Shard(i int) *Engine { return e.shards[i] }

// Spec returns shard i's doc-range spec.
func (e *ShardedEngine) Spec(i int) index.ShardSpec { return e.specs[i] }

// NumDocuments sums document counts across shards.
func (e *ShardedEngine) NumDocuments() int {
	n := 0
	for _, s := range e.shards {
		n += s.NumDocuments()
	}
	return n
}

// NumSentences sums sentence counts across shards.
func (e *ShardedEngine) NumSentences() int {
	n := 0
	for _, s := range e.shards {
		n += s.NumSentences()
	}
	return n
}

// DocumentName resolves a global document index to its name ("" if out of
// range).
func (e *ShardedEngine) DocumentName(i int) string {
	for si, sp := range e.specs {
		if i >= sp.LoDoc && i < sp.HiDoc {
			return e.shards[si].DocumentName(i - sp.LoDoc)
		}
	}
	return ""
}

// Query parses and evaluates a KOKO query across all shards.
func (e *ShardedEngine) Query(src string) (*Result, error) { return query(e, src, nil) }

// Run fans an already-parsed query out across shards (bounded by the
// engine's parallelism) as a lazy stream: each shard delivers bounded
// batches into the K-way ordered merge, so tuples yield in global document
// order — the first shard's first documents stream out while later shards
// are still evaluating — and memory stays bounded regardless of result
// size. qo.Workers applies within each shard; the shard fan-out is bounded
// separately by SetParallelism. Safe for concurrent use; each call returns
// an independent single-use stream.
func (e *ShardedEngine) Run(ctx context.Context, p *ParsedQuery, qo *QueryOptions) (*TupleSeq, error) {
	return StreamShards(ctx, len(e.shards), int(e.parallel.Load()),
		func(ctx context.Context, shard int, emit func([]Tuple) error) (*Result, error) {
			return e.StreamShard(ctx, shard, p, qo, emit)
		}, false), nil
}

// StreamShard evaluates shard i only, delivering its tuples through emit in
// bounded batches already rebased to global document and sentence ids, and
// returns the shard's counters-only summary. The unit beneath Run's fan-out
// and the chunked delivery of remote workers.
func (e *ShardedEngine) StreamShard(ctx context.Context, shard int, p *ParsedQuery, qo *QueryOptions, emit func(tuples []Tuple) error) (*Result, error) {
	if shard < 0 || shard >= len(e.shards) {
		return nil, fmt.Errorf("koko: shard %d out of range (engine has %d)", shard, len(e.shards))
	}
	docOff, sentOff := e.specs[shard].LoDoc, e.specs[shard].FirstSID
	return e.shards[shard].StreamShard(ctx, 0, p, qo, func(ts []Tuple) error {
		for k := range ts {
			ts[k].Document += docOff
			ts[k].SentenceID += sentOff
		}
		return emit(ts)
	})
}

// Stats sums index statistics across shards. Counts are per-shard sizes
// added up: a word indexed in every shard contributes once per shard, so
// the sum reflects total index footprint rather than distinct terms.
// Compression ratios are averaged weighted by node count.
func (e *ShardedEngine) Stats() IndexStats {
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
func (e *ShardedEngine) ShardStats() []ShardStat {
	out := make([]ShardStat, len(e.shards))
	for i, s := range e.shards {
		out[i] = ShardStat{
			Shard:     i,
			Documents: s.NumDocuments(),
			Sentences: s.NumSentences(),
			Tokens:    e.specs[i].Tokens,
			Index:     s.Stats(),
		}
	}
	return out
}

// shardFileName names shard i's store relative to the manifest. The suffix
// deliberately does not end in ".koko" so directory scans for *.koko pick
// up only the manifest.
func shardFileName(base string, i int) string {
	return fmt.Sprintf("%s.shard%d", base, i)
}

// Save persists the sharded layout: path becomes a small manifest store and
// each shard writes a complete stand-alone store next to it as
// path.shard<i>. Load the set back with Open or LoadSharded on the manifest
// path.
func (e *ShardedEngine) Save(path string) error {
	return e.SaveAs(path, FormatRow)
}

// SaveAs persists the sharded layout like Save with every shard written in
// the chosen store format. The manifest records each shard's format, so
// mixed-format sets written by incremental compaction load the same way.
func (e *ShardedEngine) SaveAs(path string, format StoreFormat) error {
	base := filepath.Base(path)
	files := make([]string, len(e.shards))
	formats := make([]string, len(e.shards))
	for i, s := range e.shards {
		files[i] = shardFileName(base, i)
		formats[i] = format.String()
		if err := s.SaveAs(filepath.Join(filepath.Dir(path), files[i]), format); err != nil {
			return fmt.Errorf("koko: save shard %d: %w", i, err)
		}
	}
	db := store.NewDB()
	index.SaveShardManifest(db, files, formats, e.specs)
	return db.Save(path)
}

// LoadSharded reopens a sharded engine from a manifest written by Save.
// opts (may be nil) applies to every shard.
func LoadSharded(path string, opts *Options) (*ShardedEngine, error) {
	db, err := store.Load(path)
	if err != nil {
		return nil, err
	}
	return loadShardedFromDB(db, path, opts)
}

func loadShardedFromDB(db *store.DB, path string, opts *Options) (*ShardedEngine, error) {
	files, formats, specs, err := index.LoadShardManifest(db)
	if err != nil {
		return nil, err
	}
	shards, err := loadShardEngines(filepath.Dir(path), files, formats, specs, opts, path)
	if err != nil {
		return nil, err
	}
	return newSharded(shards, specs), nil
}

// loadShardEngines loads each named shard store (relative to dir) in
// parallel and validates it against its spec; label names the manifest in
// errors. formats holds the manifest's declared store format per shard ("" =
// unchecked); Load auto-detects the actual format either way, the
// declaration only guards against a shard file swapped behind the manifest.
// Shared by the manifest and durable open paths.
func loadShardEngines(dir string, files []string, formats []string, specs []index.ShardSpec, opts *Options, label string) ([]*Engine, error) {
	shards := make([]*Engine, len(files))
	sem := make(chan struct{}, buildParallelism(len(files)))
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for i, f := range files {
		wg.Add(1)
		go func(i int, f string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			full := filepath.Join(dir, f)
			var err error
			if i < len(formats) && formats[i] != "" {
				actual := index.FormatNameRow
				if blockstore.IsBlockStore(full) {
					actual = index.FormatNameBlock
				}
				if actual != formats[i] {
					err = fmt.Errorf("shard file %s is %s format, manifest declares %s", f, actual, formats[i])
				}
			}
			var s *Engine
			if err == nil {
				s, err = Load(full, opts)
			}
			if err == nil {
				// A shard file that disagrees with its manifest spec would
				// silently rebase tuples onto the wrong global ids; refuse it.
				if s.NumDocuments() != specs[i].NumDocs() || s.NumSentences() != specs[i].NumSents {
					err = fmt.Errorf("shard file %s has %d docs/%d sents, manifest expects %d/%d",
						f, s.NumDocuments(), s.NumSentences(), specs[i].NumDocs(), specs[i].NumSents)
				}
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("koko: load shard %d of %s: %w", i, label, err)
				}
				mu.Unlock()
				return
			}
			shards[i] = s
		}(i, f)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return shards, nil
}
