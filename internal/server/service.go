package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/koko/index"
	"repro/internal/koko/index/blockstore"
	"repro/internal/koko/wal"
	"repro/internal/server/jobs"
	"repro/koko"
	"repro/koko/remote"
)

// Sentinel errors: the HTTP layer maps these to status codes.
var (
	// ErrNotFound marks an unknown corpus name (404).
	ErrNotFound = errors.New("not found")
	// ErrBadQuery marks a malformed KOKO query (400).
	ErrBadQuery = errors.New("bad query")
	// ErrNotReloadable marks a reload of an in-memory corpus (409).
	ErrNotReloadable = errors.New("not reloadable")
	// ErrRemoteCorpus marks a local mutation (ingest, document delete,
	// compact) of a corpus served by remote workers (409).
	ErrRemoteCorpus = errors.New("remote corpus")
	// ErrGenerationMoved marks a shard-eval pinned to a generation the
	// worker no longer serves (409): the coordinator must re-discover.
	ErrGenerationMoved = errors.New("generation moved")
)

// Config sizes a Service.
type Config struct {
	// MaxConcurrent bounds how many queries evaluate at once (the worker
	// pool). Excess requests wait (or fail when their context is done).
	// Default: 2 × GOMAXPROCS.
	MaxConcurrent int
	// CacheSize is the result-cache capacity in entries. 0 means the
	// default (256); negative disables caching. The cache also holds at
	// most cacheMaxTuples tuples across its entries.
	CacheSize int
	// Deprecated: DefaultWorkers is read by nothing. A shard's documents
	// evaluate in order; a query parallelizes only across shards. Kept for
	// callers that still set it.
	DefaultWorkers int
	// Shards > 1 partitions every corpus loaded from disk (from a plain,
	// non-manifest store) into that many doc-range shards; queries then fan
	// out across shard engines and merge in document order. Stores saved as
	// sharded manifests keep their on-disk shard count. How many shards of
	// one query evaluate at once scales inversely with the worker pool
	// (pool × fan-out ≈ 2 × GOMAXPROCS, at least 1), so a saturated server
	// keeps its evaluation goroutines near the pool size and an interactive
	// one (small MaxConcurrent) gets wide fan-out.
	Shards int
	// MaxDeltaDocs is how many ingested documents a corpus's delta index
	// may accumulate before the corpus starts a background compaction. 0
	// means the default (256); negative disables this trigger.
	MaxDeltaDocs int
	// CompactInterval, when > 0, makes every corpus fold its pending delta
	// and tombstones in the background that often.
	CompactInterval time.Duration
	// DataDir, when non-empty, makes every corpus durable: ingested
	// documents and deletes are written through a per-corpus WAL under
	// DataDir/<name> and recovered by replay at the next startup.
	DataDir string
	// WALSync is the WAL fsync policy for durable corpora (none, batch
	// group-commit, or always). Ignored without DataDir.
	WALSync wal.SyncPolicy
	// WALMaxBytes, when > 0, makes a corpus fold its WAL into its shard
	// files (truncating it) once the log grows past this size, bounding log
	// size and restart replay time. Ignored without DataDir.
	WALMaxBytes int64
	// StoreCacheBytes sets the process-wide decoded-block cache budget for
	// mmap'd block stores (bytes of decoded posting lists kept resident).
	// 0 keeps the default (256 MiB); negative makes the cache unbounded.
	StoreCacheBytes int64
}

// Service executes queries against a Registry through a result cache and a
// bounded worker pool. Queries, worker shard-evals and job steps all enter
// through run, so every evaluation is parsed, pooled, counted and
// classified in one place.
type Service struct {
	reg     *Registry
	cache   *resultCache
	sem     chan struct{}
	metrics Metrics
	jobs    *jobs.Manager
	// shardPar is the resolved per-query shard fan-out bound, kept so
	// remote engines connected later inherit the same budget as local ones.
	shardPar int
	// rpool is the coordinator-side worker pool (nil unless ConnectWorkers
	// ran); its counters feed the remote_* metrics. Atomic: Metrics() may
	// race ConnectWorkers.
	rpool atomic.Pointer[remote.Pool]
}

// cacheMaxTuples bounds the total tuples retained across all result-cache
// entries, the dominant memory cost of a cached result.
const cacheMaxTuples = 100000

// NewService builds a Service with an empty registry.
func NewService(cfg Config) *Service {
	maxc := cfg.MaxConcurrent
	if maxc <= 0 {
		maxc = 2 * runtime.GOMAXPROCS(0)
	}
	size := cfg.CacheSize
	if size == 0 {
		size = 256
	}
	sp := 2 * runtime.GOMAXPROCS(0) / maxc
	if sp < 1 {
		sp = 1
	}
	maxDelta := cfg.MaxDeltaDocs
	if maxDelta == 0 {
		maxDelta = 256
	}
	reg := newRegistry(koko.MutableConfig{
		Sync:            cfg.WALSync,
		ShardParallel:   sp,
		MaxDeltaDocs:    maxDelta,
		WALMaxBytes:     cfg.WALMaxBytes,
		CompactInterval: cfg.CompactInterval,
	}, cfg.DataDir, cfg.Shards)
	if cfg.StoreCacheBytes > 0 {
		blockstore.SetDefaultBudget(cfg.StoreCacheBytes)
	} else if cfg.StoreCacheBytes < 0 {
		blockstore.SetDefaultBudget(0) // 0 budget = unbounded
	}
	s := &Service{
		reg:      reg,
		cache:    newResultCache(size, cacheMaxTuples),
		sem:      make(chan struct{}, maxc),
		shardPar: sp,
	}
	s.jobs = jobs.New(s, jobs.Config{})
	return s
}

// Registry exposes the corpus registry for loading and listing.
func (s *Service) Registry() *Registry { return s.reg }

// Jobs exposes the async job manager (the /v1/jobs endpoints and the jobs
// benchmark drive it directly).
func (s *Service) Jobs() *jobs.Manager { return s.jobs }

// The Service is the job executor's runtime: jobs pin engines through it and
// evaluate each (query, shard) through run, so batch jobs and interactive
// queries contend for exactly the same bounded pool.
var _ jobs.Runtime = (*Service)(nil)

// Engine resolves a corpus name to its engine and current generation.
func (s *Service) Engine(name string) (koko.Querier, uint64, error) {
	return s.reg.Engine(name)
}

// RunShard is the job executor's per-shard step (see jobs.Runtime): a
// one-shard run over the engine the job pinned. Jobs keep tuples, so each
// batch is decoded here.
func (s *Service) RunShard(ctx context.Context, eng koko.Querier, shard int, query string, explain bool, emit func([]koko.Tuple)) (*koko.Result, string, error) {
	a, err := s.run(ctx, QueryRequest{Query: query, Explain: explain}, scope{one: true, shard: shard, eng: eng},
		batches(func(b koko.Batch) (int, error) {
			ts, err := b.Tuples()
			if err != nil {
				return 0, err
			}
			emit(ts)
			return len(ts), nil
		}))
	if err != nil {
		_, code := errorCode(err)
		return nil, code, err
	}
	return a.res, "", nil
}

// QueryRequest is one query against a named corpus.
type QueryRequest struct {
	Corpus string `json:"corpus"`
	Query  string `json:"query"`
	// Explain attaches per-condition evidence to every tuple.
	Explain bool `json:"explain,omitempty"`
	// NoCache bypasses the result cache (read and write) for this request.
	NoCache bool `json:"no_cache,omitempty"`
	// Partial opts into graceful degradation on a remote corpus
	// (?partial=ok): if some shards' every replica is down, the response
	// carries the surviving shards' tuples with Degraded set instead of
	// failing. Ignored for local corpora (local shards don't fail
	// independently) and for streamed responses.
	Partial bool `json:"partial,omitempty"`
}

// Tuples is an answer's tuple table: the engine's own tuples, encoding to
// JSON by the tuple codec (koko.AppendTuples) without a copy.
type Tuples []koko.Tuple

// MarshalJSON writes ts as a JSON array of tuples.
func (ts Tuples) MarshalJSON() ([]byte, error) {
	return koko.AppendTuples(nil, ts)
}

// Tuple is one answer tuple, encoding to JSON by the tuple codec.
type Tuple koko.Tuple

// MarshalJSON writes t as a JSON tuple.
func (t *Tuple) MarshalJSON() ([]byte, error) {
	return koko.AppendTuple(nil, (*koko.Tuple)(t))
}

// PhaseMillis is the Table 2 per-phase breakdown in milliseconds (plus the
// planner's own phase — planning time is reported, not folded into extract).
// Phase fields sum every shard's own time; shards evaluate at once, so they
// can add up to more than Total, which is the query's wall time.
type PhaseMillis struct {
	Normalize  float64 `json:"normalize_ms"`
	DPLI       float64 `json:"dpli_ms"`
	Plan       float64 `json:"plan_ms"`
	GSP        float64 `json:"gsp_ms"`
	Extract    float64 `json:"extract_ms"`
	Satisfying float64 `json:"satisfying_ms"`
	Total      float64 `json:"total_ms"`
}

// QueryResponse is the outcome of one QueryRequest.
type QueryResponse struct {
	Corpus     string `json:"corpus"`
	Generation uint64 `json:"generation"`
	Tuples     Tuples `json:"tuples"`
	QueryStats
}

// QueryStats is what an answer reports besides its tuples.
type QueryStats struct {
	Candidates int `json:"candidates"`
	Matched    int `json:"matched"`
	// Cached reports whether the result came from the result cache; Phases
	// then describes the original (cached) evaluation.
	Cached bool        `json:"cached"`
	Phases PhaseMillis `json:"phases"`
	// Plan reports the planner's chosen condition order with estimated vs
	// actual binding counts (absent when the query short-circuited before
	// extraction).
	Plan *koko.PlanInfo `json:"plan,omitempty"`
	// ServiceMillis is this request's wall time inside the service,
	// including any wait for a worker slot.
	ServiceMillis float64 `json:"service_ms"`
	// Degraded marks a partial=ok response that is missing shards whose
	// every replica failed; FailedShards lists them. A degraded result is
	// never admitted to the result cache.
	Degraded     bool  `json:"degraded,omitempty"`
	FailedShards []int `json:"failed_shards,omitempty"`
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func phasesOf(r *koko.Result) PhaseMillis {
	return PhaseMillis{
		Normalize:  ms(r.Phases.Normalize),
		DPLI:       ms(r.Phases.DPLI),
		Plan:       ms(r.Phases.Plan),
		GSP:        ms(r.Phases.GSP),
		Extract:    ms(r.Phases.Extract),
		Satisfying: ms(r.Phases.Satisfying),
		Total:      ms(r.Elapsed),
	}
}

// A drain consumes one query's tuples for one response mode: the live
// stream on a cache miss (hit nil) or a cached answer on a hit (seq nil).
// It returns what it delivered; run caches that when it holds every
// delivered batch.
type drain func(seq *koko.TupleSeq, hit *drained) (*drained, error)

// drained is what a drain delivered: the run's counters-only summary, how
// many tuples went out and, when held is set, every one of their batches
// in order. Cached, it is shared between requests and immutable.
type drained struct {
	sum     *koko.Result
	tuples  int
	batches []koko.Batch
	held    bool
}

// batches is a one-shard run's drain: each consumes one emitted batch and
// reports how many of its tuples it delivered.
func batches(each func(koko.Batch) (int, error)) drain {
	return func(seq *koko.TupleSeq, _ *drained) (*drained, error) {
		n := 0
		for ev := range seq.Events() {
			if ev.Shard != nil {
				continue
			}
			k, err := each(ev.Batch)
			if err != nil {
				return nil, err
			}
			n += k
		}
		if err := seq.Err(); err != nil {
			return nil, err
		}
		return &drained{sum: seq.Summary(), tuples: n}, nil
	}
}

// answerDrain is the drain of the buffered, NDJSON and in-process answers.
// It hands a hit's batches, and each batch of a live run, to batch; and
// each shard end of a live run, with the run's shard count and the tuples
// delivered so far, to shard. A failed shard (degraded mode) takes its
// tuples back out of that count. A live run's batches are held only while
// the cache could take them: with noCache or the cache disabled none are,
// and once the result outgrows the cache's tuple budget, or a shard fails,
// the held ones are dropped. Holding a batch copies nothing: a forwarded
// batch stays the worker's bytes.
func (s *Service) answerDrain(noCache bool, batch func(koko.Batch) error, shard func(sh *koko.ShardEnd, shards, total int) error) drain {
	return func(seq *koko.TupleSeq, hit *drained) (*drained, error) {
		if hit != nil {
			for _, b := range hit.batches {
				if err := batch(b); err != nil {
					return nil, err
				}
			}
			return hit, nil
		}
		tEval := time.Now()
		out := &drained{held: !noCache && s.cache.admits(0)}
		mark := 0 // tuples delivered by completed shards
		for ev := range seq.Events() {
			switch sh := ev.Shard; {
			case sh == nil:
				out.tuples += ev.Batch.Len()
				if out.held = out.held && s.cache.admits(out.tuples); out.held {
					out.batches = append(out.batches, ev.Batch)
				} else {
					out.batches = nil
				}
				if err := batch(ev.Batch); err != nil {
					return nil, err
				}
				continue
			case sh.Failed:
				out.tuples, out.held, out.batches = mark, false, nil // a degraded result is not cached
			default:
				mark = out.tuples
			}
			if err := shard(ev.Shard, seq.NumShards(), out.tuples); err != nil {
				return nil, err // leaving the range cancels the remaining evaluation
			}
		}
		if err := seq.Err(); err != nil {
			return nil, err
		}
		// Elapsed is the drain's wall time: with pull-driven evaluation
		// there is no separate evaluation clock (the consumer's pace IS the
		// evaluation pace), matching what Collect reports.
		out.sum = seq.Summary()
		out.sum.Elapsed = time.Since(tEval)
		return out, nil
	}
}

// scope selects what run evaluates: the zero scope is every shard of the
// corpus's current engine, through the result cache; one is just shard,
// bypassing the cache. eng, if the caller pinned it (a job, or a buffered
// answer whose generation is written before its tuples), is evaluated at
// generation gen; else the current engine is, which must be at generation
// gen when gen is set.
type scope struct {
	one   bool
	shard int
	eng   koko.Querier
	gen   uint64
}

// answer is one query's outcome as run hands it back to a response mode.
type answer struct {
	gen    uint64
	res    *koko.Result // the counters-only summary
	tuples int          // how many tuples the drain delivered
	cached bool
	failed []int // shards a degraded (Partial) run skipped
}

// stats is what a response to a reports besides its tuples and timing.
func (a *answer) stats() QueryStats {
	return QueryStats{
		Candidates:   a.res.Candidates,
		Matched:      a.res.Matched,
		Cached:       a.cached,
		Phases:       phasesOf(a.res),
		Plan:         a.res.Plan,
		Degraded:     len(a.failed) > 0,
		FailedShards: a.failed,
	}
}

// consumerGone marks a drain's failure to deliver: the client went away,
// which is routine client behaviour, not a query error.
type consumerGone struct{ err error }

func (e consumerGone) Error() string { return e.err.Error() }
func (e consumerGone) Unwrap() error { return e.err }

// run is the one way the service evaluates a query, whatever consumes it:
// count and parse it, resolve the engine sc selects, consult the cache
// (all-shards scope only), and on a miss evaluate it under a worker-pool
// slot, handing the tuples to d. Error classification, metrics, cache
// admission and the degraded rules live here only, so the buffered, NDJSON,
// shard-eval and job drains cannot drift apart. ctx cancellation is honored
// while waiting for a slot and between documents.
func (s *Service) run(ctx context.Context, req QueryRequest, sc scope, d drain) (answer, error) {
	s.metrics.queriesTotal.Add(1)
	parsed, err := koko.ParseQuery(req.Query)
	if err != nil {
		err = fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	eng, gen := sc.eng, sc.gen
	if err == nil && eng == nil {
		eng, gen, err = s.reg.Engine(req.Corpus)
		if err == nil && sc.gen != 0 && sc.gen != gen {
			err = fmt.Errorf("corpus %q is at generation %d, request pinned %d: %w",
				req.Corpus, gen, sc.gen, ErrGenerationMoved)
		}
	}
	if err == nil && sc.one && (sc.shard < 0 || sc.shard >= eng.NumShards()) {
		err = fmt.Errorf("%w: shard %d out of range (corpus %q has %d)", ErrBadQuery, sc.shard, req.Corpus, eng.NumShards())
	}
	if err != nil {
		s.metrics.queryErrors.Add(1)
		return answer{}, err
	}
	key := cacheKey{corpus: req.Corpus, gen: gen, explain: req.Explain, canonical: parsed.Canonical()}
	cached := !sc.one && !req.NoCache
	a := answer{gen: gen}
	if cached {
		if hit, ok := s.cache.get(key); ok {
			s.metrics.cacheHits.Add(1)
			a.cached = true
			out, err := d(nil, hit)
			if err != nil {
				return answer{}, s.classify(err)
			}
			a.res, a.tuples = out.sum, out.tuples
			s.metrics.tuplesReturned.Add(int64(a.tuples))
			return a, nil
		}
	}
	if !sc.one {
		s.metrics.cacheMisses.Add(1)
	}

	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return answer{}, s.classify(ctx.Err())
	}
	s.metrics.enter()
	qo := &koko.QueryOptions{
		Explain: req.Explain,
		// Engines without failure domains ignore Degraded, so Partial is safe
		// to thread through unconditionally.
		Degraded: req.Partial,
	}
	var seq *koko.TupleSeq
	if sc.one {
		seq = koko.StreamShards(ctx, 1, 1, func(ctx context.Context, _ int, emit func(koko.Batch) error) (*koko.Result, error) {
			return eng.StreamShard(ctx, sc.shard, parsed, qo, emit)
		}, false)
	} else {
		seq, err = eng.Run(ctx, parsed, qo)
	}
	var out *drained
	if err == nil {
		out, err = d(seq, nil)
	}
	if err == nil {
		a.failed = seq.FailedShards()
		if n := seq.NumShards(); len(a.failed) > 0 && len(a.failed) == n {
			// Degradation needs survivors; losing every shard is an outage.
			err = fmt.Errorf("corpus %q: all %d shards failed: %w", req.Corpus, n, seq.FailedErr())
		}
	}
	s.metrics.exit()
	<-s.sem
	if err != nil {
		return answer{}, s.classify(err)
	}
	a.res, a.tuples = out.sum, out.tuples
	s.metrics.queryNanos.Add(a.res.Elapsed.Nanoseconds())
	s.metrics.planNanos.Add(a.res.Phases.Plan.Nanoseconds())
	if a.res.Plan != nil && a.res.Plan.Reordered {
		s.metrics.plansReordered.Add(1)
	}
	switch {
	case len(a.failed) > 0:
		// A degraded result is not the query's true answer; caching it
		// would serve the gap long after the workers recover.
		s.metrics.degradedQueries.Add(1)
	case cached && out.held:
		s.cache.put(key, out)
	}
	s.metrics.tuplesReturned.Add(int64(a.tuples))
	return a, nil
}

// classify counts a failed query and maps its error for the HTTP layer.
// The caller giving up (a done ctx, a departed consumer) is a
// cancellation; a dead shard set or a damaged store is the backend's
// failure, not the query's; anything else is a bad query.
func (s *Service) classify(err error) error {
	var gone consumerGone
	switch {
	case errors.As(err, &gone):
		s.metrics.queryCancels.Add(1)
		return gone.err
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.metrics.queryCancels.Add(1)
		return err
	}
	s.metrics.queryErrors.Add(1)
	var damaged *index.StoreError
	if errors.Is(err, remote.ErrShardUnavailable) || errors.As(err, &damaged) {
		return err
	}
	return fmt.Errorf("%w: %v", ErrBadQuery, err)
}

// Query answers req as one buffered response, decoding its tuples: the
// in-process answer. Like Collect, it cuts a failed shard's tuples out of
// a degraded answer again.
func (s *Service) Query(ctx context.Context, req QueryRequest) (*QueryResponse, error) {
	t0 := time.Now()
	var tuples []koko.Tuple
	mark := 0 // len(tuples) at the last shard end
	a, err := s.run(ctx, req, scope{}, s.answerDrain(req.NoCache, func(b koko.Batch) error {
		ts, err := b.Tuples()
		tuples = append(tuples, ts...)
		return err
	}, func(sh *koko.ShardEnd, _, _ int) error {
		if sh.Failed {
			tuples = tuples[:mark]
		}
		mark = len(tuples)
		return nil
	}))
	if err != nil {
		return nil, err
	}
	resp := &QueryResponse{
		Corpus:     req.Corpus,
		Generation: a.gen,
		Tuples:     tuples,
		QueryStats: a.stats(),
	}
	resp.ServiceMillis = ms(time.Since(t0))
	return resp, nil
}

// cacheKey is the result-cache key of a request: buffered and streamed
// evaluations of the same query share one key, so the two modes populate
// and hit one cache, not two. Explain changes the tuples' evidence, so it
// is part of it; the generation makes reloads an implicit invalidation. The
// canonical text is plan-invariant (ParseQuery canonicalizes condition
// order), so reordered-but-equivalent conjunctions share one entry. A struct
// rather than a joined string, so no corpus name can alias another's keys.
type cacheKey struct {
	corpus    string
	gen       uint64
	explain   bool
	canonical string
}

// Validate checks query syntax; a nil error means the query parses.
func (s *Service) Validate(query string) error {
	s.metrics.validateTotal.Add(1)
	if err := koko.Validate(query); err != nil {
		return fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	return nil
}

// Reload hot-swaps a file-backed corpus; the generation bump invalidates
// its cache entries.
func (s *Service) Reload(name string) (CorpusInfo, error) {
	info, err := s.reg.Reload(name)
	if err == nil {
		s.metrics.reloadsTotal.Add(1)
	}
	return info, err
}

// Ingest upserts one document into a corpus's delta index at a new
// generation (invalidating the corpus's cache entries): it is queryable
// immediately, while running queries and jobs keep their pinned snapshot.
// Re-ingesting a document name replaces it. The returned doc index is the
// document's global id in the seal that made it visible.
func (s *Service) Ingest(corpus, docName, text string) (CorpusInfo, int, bool, error) {
	e, err := s.reg.local(corpus)
	if err != nil {
		return CorpusInfo{}, 0, false, err
	}
	snap, updated, err := e.mut.PutDocument(docName, text)
	if err != nil {
		return CorpusInfo{}, 0, false, fmt.Errorf("corpus %q: %w", corpus, err)
	}
	s.metrics.ingestsTotal.Add(1)
	if updated {
		s.metrics.documentUpdates.Add(1)
	}
	info, err := s.reg.describe(e, snap)
	return info, snap.NumDocuments() - 1, updated, err
}

// DeleteDocument tombstones a named document in a corpus and seals a new
// generation (the bump invalidates the corpus's cache entries); the bytes
// are reclaimed by the next compaction. Returns how many live documents
// carried the name. Unknown documents map to koko.ErrNoDocument (404).
func (s *Service) DeleteDocument(corpus, doc string) (CorpusInfo, int, error) {
	e, err := s.reg.local(corpus)
	if err != nil {
		return CorpusInfo{}, 0, err
	}
	snap, n, err := e.mut.DeleteDocument(doc)
	if err != nil {
		return CorpusInfo{}, 0, fmt.Errorf("corpus %q: %w", corpus, err)
	}
	s.metrics.documentDeletes.Add(1)
	info, err := s.reg.describe(e, snap)
	return info, n, err
}

// Compact synchronously folds a corpus's delta and tombstones into its base
// shards (waiting for a background fold in flight first), installing the
// compacted snapshot at a new generation. An empty delta is a cheap no-op
// (Docs == 0 in the returned stats).
func (s *Service) Compact(name string) (CorpusInfo, koko.CompactionStats, error) {
	e, err := s.reg.local(name)
	if err != nil {
		return CorpusInfo{}, koko.CompactionStats{}, err
	}
	st, err := e.mut.Compact()
	if err != nil {
		return CorpusInfo{}, koko.CompactionStats{}, fmt.Errorf("compact corpus %q: %w", name, err)
	}
	info, err := s.reg.describe(e, e.mut.Snapshot())
	return info, st, err
}

// DeleteCorpus unregisters a corpus and drops its result-cache entries.
// New queries, ingests, and jobs against the name fail with ErrNotFound;
// running jobs finish on their pinned snapshot.
func (s *Service) DeleteCorpus(name string) (CorpusInfo, error) {
	info, err := s.reg.Delete(name)
	if err != nil {
		return CorpusInfo{}, err
	}
	s.cache.dropCorpus(name)
	s.metrics.deletesTotal.Add(1)
	return info, nil
}

// Close releases every corpus's durable resources (WAL handles, sync
// loops); pending batched WAL writes are fsynced on the way out. The
// service is not usable for mutations afterwards — the kokod shutdown path.
func (s *Service) Close() {
	s.reg.CloseAll()
}

// Metrics returns a point-in-time counter snapshot.
func (s *Service) Metrics() MetricsSnapshot {
	m := &s.metrics
	life, deltaDocs, tombstones := s.reg.totals()
	snap := MetricsSnapshot{
		IngestsTotal:     m.ingestsTotal.Load(),
		CompactionsTotal: int64(life.Compactions),
		CompactionErrors: int64(life.CompactionErrors),
		CorporaDeleted:   m.deletesTotal.Load(),
		DeltaDocs:        deltaDocs,
		QueriesTotal:     m.queriesTotal.Load(),
		QueryErrors:      m.queryErrors.Load(),
		CacheHits:        m.cacheHits.Load(),
		CacheMisses:      m.cacheMisses.Load(),
		CacheEntries:     s.cache.len(),
		CacheTuples:      s.cache.tupleCount(),
		ValidateTotal:    m.validateTotal.Load(),
		ReloadsTotal:     m.reloadsTotal.Load(),
		TuplesReturned:   m.tuplesReturned.Load(),
		QueryMillisTotal: float64(m.queryNanos.Load()) / 1e6,
		InFlight:         m.inFlight.Load(),
		PeakInFlight:     m.peakInFlight.Load(),
		Corpora:          s.reg.Len(),
		StreamsTotal:     m.streamsTotal.Load(),
		QueriesCancelled: m.queryCancels.Load(),
		DocumentDeletes:  m.documentDeletes.Load(),
		DocumentUpdates:  m.documentUpdates.Load(),
		WALAppends:       life.WALAppends,
		WALBytes:         life.WALBytes,
		WALReplayedDocs:  life.ReplayedDocs,
		TombstonesLive:   int64(tombstones),
		CompactionSwaps:  life.Swaps,
		RecoveryMillis:   ms(life.Recovery),
		DegradedQueries:  m.degradedQueries.Load(),
		ShardEvalsServed: m.shardEvalsServed.Load(),
		PlansReordered:   m.plansReordered.Load(),
		PlanTimeMicros:   m.planNanos.Load() / 1e3,
		Jobs:             s.jobs.Metrics(),
	}
	bs := blockstore.DefaultStats()
	snap.StoreCacheBytes = bs.UsedBytes
	snap.StoreCacheHits = bs.Hits
	snap.StoreCacheMisses = bs.Misses
	snap.StoreBlockDecodes = bs.Decodes
	snap.StoreEvictions = bs.Evictions
	if p := s.rpool.Load(); p != nil {
		c := p.Counters()
		snap.RemoteAttempts = c.Attempts.Load()
		snap.RemoteRetries = c.Retries.Load()
		snap.RemoteHedgesFired = c.HedgesFired.Load()
		snap.RemoteHedgeWins = c.HedgeWins.Load()
		snap.RemoteCorruptPartials = c.CorruptPartials.Load()
		snap.NodeUnhealthy = c.NodeUnhealthy.Load()
		snap.BreakerOpen = c.BreakerOpen.Load()
	}
	return snap
}
