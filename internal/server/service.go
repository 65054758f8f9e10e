package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

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
	// default (256); negative disables caching.
	CacheSize int
	// CacheMaxTuples bounds the total tuples retained across all cache
	// entries (the dominant memory cost of a cached result). 0 means the
	// default (100000); negative disables the tuple budget, leaving only
	// the entry-count bound.
	CacheMaxTuples int
	// DefaultWorkers is the per-query intra-engine worker count applied
	// when a request does not specify one. Default 1 (sequential): under
	// concurrent load, cross-request parallelism already saturates cores.
	DefaultWorkers int
	// Shards > 1 partitions every corpus loaded from disk (from a plain,
	// non-manifest store) into that many doc-range shards; queries then fan
	// out across shard engines and merge in document order. Stores saved as
	// sharded manifests keep their on-disk shard count.
	Shards int
	// ShardParallel bounds how many shards evaluate concurrently within one
	// query. 0 means auto: the fan-out scales inversely with the worker
	// pool (pool × fan-out ≈ 2 × GOMAXPROCS), so a saturated server keeps
	// total evaluation goroutines near the pre-sharding level and an
	// interactive one (small -pool) gets low-latency wide fan-out.
	// Negative leaves the engine default, min(shards, GOMAXPROCS).
	ShardParallel int
	// CacheTTL, when > 0, expires result-cache entries that many seconds'
	// worth of time after they are stored (lazily, at lookup). 0 disables
	// expiry. Per-corpus overrides in CacheTTLPerCorpus win over this
	// default.
	CacheTTL time.Duration
	// CacheMinCost is the cost-aware admission threshold: only results
	// whose evaluation took at least this long are cached, so cheap
	// queries stop evicting expensive warm entries. 0 admits everything.
	CacheMinCost time.Duration
	// MaxDeltaDocs caps how many ingested documents a corpus's delta index
	// may accumulate before a background compaction is kicked off
	// automatically. 0 means the default (256); negative disables
	// auto-compaction (compact via the API or the interval loop).
	MaxDeltaDocs int
	// CacheTTLPerCorpus overrides CacheTTL for named corpora (the
	// time-sensitive ones); a zero value for a name disables expiry for it.
	CacheTTLPerCorpus map[string]time.Duration
	// MaxJobs bounds how many async jobs may be pending or running at once
	// (0 = default 16).
	MaxJobs int
	// JobResultsTTL is how long finished jobs stay fetchable (0 = default
	// 15m, negative = until deleted).
	JobResultsTTL time.Duration
	// JobRetainedTuples bounds the total tuples retained across finished
	// jobs' results; oldest-finished jobs are purged beyond it (0 = default
	// 200000, negative = unbounded).
	JobRetainedTuples int
	// DisablePlan turns off the statistics-free query planner service-wide:
	// queries evaluate conditions in written order unless a request says
	// plan:"on" explicitly (the kokod -plan=off flag).
	DisablePlan bool
	// LoadOptions is applied to every corpus loaded from disk.
	LoadOptions *koko.Options
	// DataDir, when non-empty, makes every corpus durable: ingested
	// documents and deletes are written through a per-corpus WAL under
	// DataDir/<name> and recovered by replay at the next startup.
	DataDir string
	// WALSync is the WAL fsync policy for durable corpora (none, batch
	// group-commit, or always). Ignored without DataDir.
	WALSync wal.SyncPolicy
	// WALMaxBytes, when > 0, kicks a background compaction whenever a
	// corpus's WAL grows past this size — compaction folds the log into the
	// shard files and truncates it, bounding both log size and restart
	// replay time. Ignored without DataDir.
	WALMaxBytes int64
	// StoreCacheBytes sets the process-wide decoded-block cache budget for
	// mmap'd block stores (bytes of decoded posting lists kept resident).
	// 0 keeps the default (256 MiB); negative makes the cache unbounded.
	StoreCacheBytes int64
}

// Service executes queries against a Registry through a result cache and a
// bounded worker pool. It is the shared execution path of kokod's HTTP
// handlers, the koko CLI, and the async job executor.
type Service struct {
	reg          *Registry
	cache        *resultCache
	sem          chan struct{}
	metrics      Metrics
	defWorkers   int
	jobs         *jobs.Manager
	cacheTTL     time.Duration
	cacheTTLBy   map[string]time.Duration
	cacheMinCost time.Duration
	maxDeltaDocs int
	walMaxBytes  int64
	planOff      bool
	// shardPar is the resolved per-query shard fan-out bound, kept so
	// remote engines connected later inherit the same budget as local ones.
	shardPar int
	// rpool is the coordinator-side worker pool (nil unless ConnectWorkers
	// ran); its counters feed the remote_* metrics. Atomic: Metrics() may
	// race ConnectWorkers.
	rpool atomic.Pointer[remote.Pool]
	// compacting tracks corpora with an auto-compaction in flight so a
	// burst of ingests kicks off at most one background fold per corpus.
	compacting sync.Map
}

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
	maxTuples := cfg.CacheMaxTuples
	if maxTuples == 0 {
		maxTuples = 100000
	}
	workers := cfg.DefaultWorkers
	if workers <= 0 {
		workers = 1
	}
	reg := NewRegistry(cfg.LoadOptions)
	reg.SetDefaultShards(cfg.Shards)
	if cfg.DataDir != "" {
		reg.SetDurability(cfg.DataDir, cfg.WALSync)
	}
	sp := cfg.ShardParallel
	if sp == 0 {
		if sp = 2 * runtime.GOMAXPROCS(0) / maxc; sp < 1 {
			sp = 1
		}
	}
	reg.SetShardParallelism(sp)
	maxDelta := cfg.MaxDeltaDocs
	if maxDelta == 0 {
		maxDelta = 256
	}
	if cfg.StoreCacheBytes > 0 {
		blockstore.SetDefaultBudget(cfg.StoreCacheBytes)
	} else if cfg.StoreCacheBytes < 0 {
		blockstore.SetDefaultBudget(0) // 0 budget = unbounded
	}
	s := &Service{
		reg:          reg,
		cache:        newResultCache(size, maxTuples),
		sem:          make(chan struct{}, maxc),
		defWorkers:   workers,
		cacheTTL:     cfg.CacheTTL,
		cacheTTLBy:   cfg.CacheTTLPerCorpus,
		cacheMinCost: cfg.CacheMinCost,
		maxDeltaDocs: maxDelta,
		walMaxBytes:  cfg.WALMaxBytes,
		planOff:      cfg.DisablePlan,
		shardPar:     sp,
	}
	s.jobs = jobs.New(s, jobs.Config{
		MaxActive:         cfg.MaxJobs,
		ResultsTTL:        cfg.JobResultsTTL,
		MaxRetainedTuples: cfg.JobRetainedTuples,
	})
	return s
}

// Registry exposes the corpus registry for loading and listing.
func (s *Service) Registry() *Registry { return s.reg }

// Jobs exposes the async job manager (the /v1/jobs endpoints and the jobs
// benchmark drive it directly).
func (s *Service) Jobs() *jobs.Manager { return s.jobs }

// The Service is the job executor's runtime: it hands out corpus engines
// and worker-pool slots so batch jobs and interactive queries contend for
// exactly the same bounded resources.
var _ jobs.Runtime = (*Service)(nil)

// Engine resolves a corpus name to its engine and current generation.
func (s *Service) Engine(name string) (koko.Querier, uint64, error) {
	return s.reg.Engine(name)
}

// Acquire claims one worker-pool slot, honoring ctx while waiting.
func (s *Service) Acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a slot claimed with Acquire.
func (s *Service) Release() { <-s.sem }

// ShardWorkers clamps a requested worker count for a single-shard
// evaluation (jobs evaluate shards one at a time, so the whole per-query
// budget applies).
func (s *Service) ShardWorkers(requested int) int {
	return s.workersFor(requested, 1)
}

// ttlFor resolves the result-cache TTL for a corpus: per-corpus override
// first, then the service default (0 = no expiry).
func (s *Service) ttlFor(corpus string) time.Duration {
	if ttl, ok := s.cacheTTLBy[corpus]; ok {
		return ttl
	}
	return s.cacheTTL
}

// QueryRequest is one query against a named corpus.
type QueryRequest struct {
	Corpus string `json:"corpus"`
	Query  string `json:"query"`
	// Explain attaches per-condition evidence to every tuple.
	Explain bool `json:"explain,omitempty"`
	// Workers overrides the per-query worker count (0 = service default).
	Workers int `json:"workers,omitempty"`
	// Plan selects the query planner for this request: "on" orders
	// conditions by selectivity, "off" evaluates in written order, ""
	// inherits the service default (-plan flag). Tuples are identical
	// either way; only evaluation order (and the plan report) changes.
	Plan string `json:"plan,omitempty"`
	// NoCache bypasses the result cache (read and write) for this request.
	NoCache bool `json:"no_cache,omitempty"`
	// Partial opts into graceful degradation on a remote corpus
	// (?partial=ok): if some shards' every replica is down, the response
	// carries the surviving shards' tuples with Degraded set instead of
	// failing. Ignored for local corpora (local shards don't fail
	// independently) and for streamed responses.
	Partial bool `json:"partial,omitempty"`
}

// TupleResult is the JSON form of one output tuple.
type TupleResult struct {
	SentenceID int                `json:"sentence_id"`
	Document   int                `json:"document"`
	Values     []string           `json:"values"`
	Scores     map[string]float64 `json:"scores,omitempty"`
	Evidence   []EvidenceResult   `json:"evidence,omitempty"`
}

// EvidenceResult is the JSON form of one explanation row.
type EvidenceResult struct {
	Variable     string  `json:"variable"`
	Condition    string  `json:"condition"`
	Weight       float64 `json:"weight"`
	Confidence   float64 `json:"confidence"`
	Contribution float64 `json:"contribution"`
}

// PhaseMillis is the Table 2 per-phase breakdown in milliseconds (plus the
// planner's own phase — planning time is reported, not folded into extract).
type PhaseMillis struct {
	Normalize   float64 `json:"normalize_ms"`
	DPLI        float64 `json:"dpli_ms"`
	Plan        float64 `json:"plan_ms"`
	LoadArticle float64 `json:"load_article_ms"`
	GSP         float64 `json:"gsp_ms"`
	Extract     float64 `json:"extract_ms"`
	Satisfying  float64 `json:"satisfying_ms"`
	Total       float64 `json:"total_ms"`
}

// QueryResponse is the outcome of one QueryRequest.
type QueryResponse struct {
	Corpus     string        `json:"corpus"`
	Generation uint64        `json:"generation"`
	Tuples     []TupleResult `json:"tuples"`
	Candidates int           `json:"candidates"`
	Matched    int           `json:"matched"`
	// Cached reports whether the result came from the result cache; Phases
	// then describes the original (cached) evaluation.
	Cached bool        `json:"cached"`
	Phases PhaseMillis `json:"phases"`
	// Plan reports the planner's chosen condition order with estimated vs
	// actual binding counts (absent when planning is off or the query
	// short-circuited before extraction).
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
		Normalize:   ms(r.Phases.Normalize),
		DPLI:        ms(r.Phases.DPLI),
		Plan:        ms(r.Phases.Plan),
		LoadArticle: ms(r.Phases.LoadArticle),
		GSP:         ms(r.Phases.GSP),
		Extract:     ms(r.Phases.Extract),
		Satisfying:  ms(r.Phases.Satisfying),
		Total:       ms(r.Elapsed),
	}
}

// prepare is the shared prologue of buffered and streamed evaluation:
// count the query, parse it, resolve the corpus, and derive the cache key.
// Keeping it in one place is what keeps the two modes' error
// classification and cache keying from drifting apart.
func (s *Service) prepare(req QueryRequest) (parsed *koko.ParsedQuery, eng koko.Querier, gen uint64, key, plan string, err error) {
	s.metrics.queriesTotal.Add(1)
	parsed, err = koko.ParseQuery(req.Query)
	if err != nil {
		s.metrics.queryErrors.Add(1)
		return nil, nil, 0, "", "", fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	eng, gen, err = s.reg.Engine(req.Corpus)
	if err != nil {
		s.metrics.queryErrors.Add(1)
		return nil, nil, 0, "", "", err
	}
	plan = s.effectivePlan(req.Plan)
	return parsed, eng, gen, cacheKey(req, gen, parsed, plan), plan, nil
}

// effectivePlan resolves a request's planner selection against the service
// default to exactly "on" or "off" — the normalized form both the cache key
// and the engine option use, so "" and an explicit match of the default
// share one cache entry.
func (s *Service) effectivePlan(req string) string {
	switch req {
	case "on", "off":
		return req
	}
	if s.planOff {
		return "off"
	}
	return "on"
}

// cacheLookup consults the result cache (unless bypassed) and keeps the
// hit/miss counters for both evaluation modes.
func (s *Service) cacheLookup(key string, noCache bool) (*koko.Result, bool) {
	if !noCache {
		if res, ok := s.cache.get(key); ok {
			s.metrics.cacheHits.Add(1)
			return res, true
		}
	}
	s.metrics.cacheMisses.Add(1)
	return nil, false
}

// Query canonicalizes, consults the cache, and evaluates on miss under the
// worker-pool bound. ctx cancellation is honored while waiting for a slot.
func (s *Service) Query(ctx context.Context, req QueryRequest) (*QueryResponse, error) {
	t0 := time.Now()
	parsed, eng, gen, key, plan, err := s.prepare(req)
	if err != nil {
		return nil, err
	}
	if res, ok := s.cacheLookup(key, req.NoCache); ok {
		resp := s.respond(req.Corpus, gen, res, true)
		resp.ServiceMillis = ms(time.Since(t0))
		return resp, nil
	}

	if err := s.Acquire(ctx); err != nil {
		s.metrics.queryCancels.Add(1)
		return nil, err
	}
	qo := &koko.QueryOptions{
		Explain: req.Explain,
		Workers: s.workersFor(req.Workers, fanoutOf(eng)),
		Plan:    plan,
		// Engines without failure domains ignore Degraded, so Partial is safe
		// to thread through unconditionally.
		Degraded: req.Partial,
	}
	var res *koko.Result
	var failed []int
	s.metrics.enter()
	seq, err2 := eng.Run(ctx, parsed, qo)
	if err2 == nil {
		res, err2 = seq.Collect()
	}
	if err2 == nil {
		failed = seq.FailedShards()
		if n := seq.NumShards(); len(failed) > 0 && len(failed) == n {
			// Degradation needs survivors; losing every shard is an outage.
			err2 = fmt.Errorf("corpus %q: all %d shards failed: %w", req.Corpus, n, seq.FailedErr())
		}
	}
	s.metrics.exit()
	s.Release()
	if err2 != nil {
		if ctxDone(err2) {
			s.metrics.queryCancels.Add(1)
			return nil, err2
		}
		s.metrics.queryErrors.Add(1)
		if errors.Is(err2, remote.ErrShardUnavailable) {
			// A dead shard set is the backend's failure, not the query's.
			return nil, err2
		}
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err2)
	}
	s.metrics.queryNanos.Add(res.Elapsed.Nanoseconds())
	s.recordPlan(res)
	if len(failed) > 0 {
		// A degraded result is not the query's true answer; caching it
		// would serve the gap long after the workers recover.
		s.metrics.degradedQueries.Add(1)
	} else {
		s.cachePut(key, req, res)
	}
	resp := s.respond(req.Corpus, gen, res, false)
	resp.Degraded = len(failed) > 0
	resp.FailedShards = failed
	resp.ServiceMillis = ms(time.Since(t0))
	return resp, nil
}

// cachePut admits an evaluated result to the cache — unless the request
// bypassed caching, or the evaluation was cheaper than the cost-aware
// admission threshold (re-running it costs less than the warm entries it
// would evict). Buffered and streamed evaluation share this one admission
// path.
func (s *Service) cachePut(key string, req QueryRequest, res *koko.Result) {
	if req.NoCache {
		return
	}
	if s.cacheMinCost > 0 && res.Elapsed < s.cacheMinCost {
		s.metrics.cacheCostSkips.Add(1)
		return
	}
	s.cache.put(key, res, s.ttlFor(req.Corpus))
}

// cacheKey derives the result-cache key for a request: buffered and
// streamed evaluations of the same query MUST share one key derivation so
// the two modes populate and hit one cache, not two. Workers changes only
// scheduling, never results, so it is excluded; Explain changes the
// tuples' evidence, so it is part of it; the generation makes reloads an
// implicit invalidation. The canonical text is plan-invariant (ParseQuery
// canonicalizes condition order), so reordered-but-equivalent conjunctions
// share one entry; plan is the pre-normalized "on"/"off" (the stored
// result's phase/plan report differs between the two, never its tuples).
func cacheKey(req QueryRequest, gen uint64, parsed *koko.ParsedQuery, plan string) string {
	return fmt.Sprintf("%s|%d|%t|%s|%s", req.Corpus, gen, req.Explain, plan, parsed.Canonical())
}

// recordPlan keeps the planner metrics for one evaluated (non-cached)
// query: time spent planning and whether the plan reordered evaluation.
func (s *Service) recordPlan(res *koko.Result) {
	s.metrics.planNanos.Add(res.Phases.Plan.Nanoseconds())
	if res.Plan != nil && res.Plan.Reordered {
		s.metrics.plansReordered.Add(1)
	}
}

// ctxDone reports whether err is a context cancellation/deadline error
// (possibly wrapped with shard attribution) — those are the caller's doing,
// not a bad query.
func ctxDone(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// fanoutOf reports how many shard evaluations eng actually runs at once
// for one query (1 for a plain engine; a mutable-corpus snapshot adds one
// for a live delta).
func fanoutOf(eng koko.Querier) int {
	switch e := eng.(type) {
	case *koko.ShardedEngine:
		return e.Parallelism()
	case *koko.Snapshot:
		return e.Fanout()
	case *remote.Engine:
		// Remote fan-out costs connections, not local cores, but the
		// Workers clamp it feeds divides worker-side CPU instead.
		return e.Parallelism()
	}
	return 1
}

func (s *Service) workersFor(reqWorkers, fanout int) int {
	w := s.defWorkers
	if reqWorkers > 0 {
		w = reqWorkers
	}
	// Clamp request-supplied fan-out: a client must not be able to spawn
	// unbounded goroutines per query. Workers applies inside each of the
	// fanout concurrently-evaluating shards, so the budget divides by the
	// engine's effective fan-out (not its shard count — shards that queue
	// behind the fan-out bound cost nothing extra) to keep total per-query
	// parallelism at GOMAXPROCS.
	max := runtime.GOMAXPROCS(0)
	if fanout > 1 {
		max /= fanout
		if max < 1 {
			max = 1
		}
	}
	if w > max {
		w = max
	}
	return w
}

// respond renders a (possibly shared, cached) engine result without
// mutating it.
func (s *Service) respond(corpus string, gen uint64, res *koko.Result, cached bool) *QueryResponse {
	resp := &QueryResponse{
		Corpus:     corpus,
		Generation: gen,
		Tuples:     make([]TupleResult, 0, len(res.Tuples)),
		Candidates: res.Candidates,
		Matched:    res.Matched,
		Cached:     cached,
		Phases:     phasesOf(res),
		Plan:       res.Plan,
	}
	s.metrics.tuplesReturned.Add(int64(len(res.Tuples)))
	for _, t := range res.Tuples {
		resp.Tuples = append(resp.Tuples, tupleResultOf(t, 0, 0))
	}
	return resp
}

// tupleResultOf renders one engine tuple as its JSON form, rebasing
// shard-local attribution by the given offsets (0,0 for an already-global
// tuple). Buffered responses, NDJSON stream events, and job results all
// encode tuples through this one conversion — that is what makes the three
// surfaces byte-identical.
func tupleResultOf(t koko.Tuple, docOff, sentOff int) TupleResult {
	tr := TupleResult{
		SentenceID: t.SentenceID + sentOff,
		Document:   t.Document + docOff,
		Values:     t.Values,
		Scores:     t.Scores,
	}
	for _, ev := range t.Evidence {
		tr.Evidence = append(tr.Evidence, EvidenceResult{
			Variable:     ev.Variable,
			Condition:    ev.Condition,
			Weight:       ev.Weight,
			Confidence:   ev.Confidence,
			Contribution: ev.Contribution,
		})
	}
	return tr
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

// Ingest upserts one document into a corpus's delta index and seals a new
// generation: the document is queryable immediately, the corpus's cache
// entries are invalidated by the generation bump, and queries or jobs
// already running keep their pinned snapshot. Re-ingesting an existing
// document name replaces it. The returned doc index is the ingested
// document's global id. When the delta has grown past the auto-compaction
// threshold — or a durable corpus's WAL past the configured size bound — a
// background fold into the base shards is kicked off (at most one per
// corpus at a time).
func (s *Service) Ingest(corpus, docName, text string) (CorpusInfo, int, bool, error) {
	info, doc, updated, err := s.reg.Ingest(corpus, docName, text)
	if err != nil {
		return CorpusInfo{}, 0, false, err
	}
	s.metrics.ingestsTotal.Add(1)
	if updated {
		s.metrics.documentUpdates.Add(1)
	}
	if s.maxDeltaDocs > 0 && info.DeltaDocs >= s.maxDeltaDocs {
		s.kickCompaction(corpus)
	} else if s.walMaxBytes > 0 && info.WALBytes >= s.walMaxBytes {
		s.kickCompaction(corpus)
	}
	return info, doc, updated, nil
}

// DeleteDocument tombstones a named document in a corpus and seals a new
// generation (the bump invalidates the corpus's cache entries); the bytes
// are reclaimed by the next compaction. Returns how many live documents
// carried the name. Unknown documents map to koko.ErrNoDocument (404).
func (s *Service) DeleteDocument(corpus, doc string) (CorpusInfo, int, error) {
	info, n, err := s.reg.DeleteDocument(corpus, doc)
	if err != nil {
		return CorpusInfo{}, 0, err
	}
	s.metrics.documentDeletes.Add(1)
	return info, n, nil
}

// Compact synchronously folds a corpus's delta into its base shards,
// installing the compacted snapshot at a new generation. An empty delta is
// a cheap no-op (Docs == 0 in the returned stats).
func (s *Service) Compact(name string) (CorpusInfo, koko.CompactionStats, error) {
	info, st, err := s.reg.Compact(name)
	if err == nil && st.Docs > 0 {
		s.metrics.compactionsTotal.Add(1)
	}
	return info, st, err
}

// kickCompaction starts a background compaction of the named corpus unless
// one is already in flight. No caller can see a background failure, so it
// is logged and counted (compaction_errors) rather than swallowed — a
// persistently failing auto-compaction would otherwise let the delta grow
// in silence.
func (s *Service) kickCompaction(name string) {
	if _, inflight := s.compacting.LoadOrStore(name, struct{}{}); inflight {
		return
	}
	go func() {
		defer s.compacting.Delete(name)
		s.compactLogged(name)
	}()
}

// compactLogged runs one compaction on behalf of a background caller,
// logging and counting any failure. A corpus deleted or replaced meanwhile
// surfaces here as ErrNotFound — routine, but still the operator's only
// signal, so it is logged too.
func (s *Service) compactLogged(name string) {
	if _, _, err := s.Compact(name); err != nil {
		s.metrics.compactionErrors.Add(1)
		log.Printf("server: background compaction of corpus %q: %v", name, err)
	}
}

// CompactLoop folds every corpus's pending delta into its base shards each
// interval, until ctx is done. kokod runs this as the background compaction
// loop when -compact-interval is set.
func (s *Service) CompactLoop(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.CompactAll()
		}
	}
}

// CompactAll compacts every corpus with a non-empty delta or live
// tombstones, sequentially (a compaction rebuilds shard indices in parallel
// internally; running corpora back-to-back keeps the CPU pressure bounded).
// Failures are logged and counted per corpus.
func (s *Service) CompactAll() {
	for _, info := range s.reg.List() {
		if info.DeltaDocs > 0 || info.Tombstones > 0 {
			s.compactLogged(info.Name)
		}
	}
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
	deltaDocs := 0
	for _, info := range s.reg.List() {
		deltaDocs += info.DeltaDocs
	}
	dur := s.reg.Durability()
	snap := MetricsSnapshot{
		CacheCostSkips:   m.cacheCostSkips.Load(),
		IngestsTotal:     m.ingestsTotal.Load(),
		CompactionsTotal: m.compactionsTotal.Load(),
		CompactionErrors: m.compactionErrors.Load(),
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
		WALAppends:       dur.WALAppends,
		WALBytes:         dur.WALBytes,
		WALReplayedDocs:  dur.ReplayedDocs,
		TombstonesLive:   int64(dur.TombstonesLive),
		CompactionSwaps:  dur.Swaps,
		RecoveryMillis:   ms(dur.Recovery),
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
