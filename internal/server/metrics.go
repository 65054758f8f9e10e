package server

import (
	"sync/atomic"

	"repro/internal/server/jobs"
)

// Metrics counts service activity. All fields are updated atomically; a
// consistent point-in-time view is obtained with Snapshot.
type Metrics struct {
	queriesTotal atomic.Int64
	queryErrors  atomic.Int64
	// queryCancels counts queries abandoned by their caller (context
	// cancelled, streaming client disconnected) — routine client behavior,
	// kept out of queryErrors so error dashboards track real failures.
	queryCancels   atomic.Int64
	streamsTotal   atomic.Int64
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	validateTotal  atomic.Int64
	reloadsTotal   atomic.Int64
	tuplesReturned atomic.Int64
	queryNanos     atomic.Int64
	inFlight       atomic.Int64
	peakInFlight   atomic.Int64
	// Mutable-corpus lifecycle counters: documents ingested and corpora
	// deleted. (Compactions and their failures are counted by the corpora
	// themselves and summed into the snapshot.)
	ingestsTotal atomic.Int64
	deletesTotal atomic.Int64
	// Durability lifecycle counters: documents tombstoned via the delete
	// endpoint, and ingests that replaced (updated) an existing document.
	documentDeletes atomic.Int64
	documentUpdates atomic.Int64
	// Distributed-execution counters kept by the service itself:
	// degradedQueries counts partial=ok responses that were actually
	// missing shards; shardEvalsServed counts worker-side
	// /v1/internal/shard-eval evaluations answered. (Attempt/retry/hedge/
	// breaker counters live in the remote pool and are merged into the
	// snapshot.)
	degradedQueries  atomic.Int64
	shardEvalsServed atomic.Int64
	// Planner counters: queries whose statistics-free plan reordered
	// evaluation, and cumulative time spent planning (nanoseconds).
	plansReordered atomic.Int64
	planNanos      atomic.Int64
}

// MetricsSnapshot is the JSON form served by GET /v1/metrics.
type MetricsSnapshot struct {
	// QueriesTotal counts one per query, per shard-eval served and per
	// (query, shard) of a job; the other query counters share that unit.
	QueriesTotal int64 `json:"queries_total"`
	QueryErrors  int64 `json:"query_errors"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	CacheEntries int   `json:"cache_entries"`
	// CacheTuples is the total tuples held across cache entries (the
	// quantity the cache's memory budget bounds).
	CacheTuples    int   `json:"cache_tuples"`
	ValidateTotal  int64 `json:"validate_total"`
	ReloadsTotal   int64 `json:"reloads_total"`
	TuplesReturned int64 `json:"tuples_returned"`
	// QueryMillisTotal is summed engine evaluation time over cache misses.
	QueryMillisTotal float64 `json:"query_millis_total"`
	InFlight         int64   `json:"in_flight"`
	PeakInFlight     int64   `json:"peak_in_flight"`
	Corpora          int     `json:"corpora"`
	// StreamsTotal counts queries served in NDJSON streaming mode (a subset
	// of QueriesTotal); QueriesCancelled counts caller-abandoned queries
	// (cancelled contexts, disconnected streaming clients), which are not
	// query errors.
	StreamsTotal     int64 `json:"streams_total"`
	QueriesCancelled int64 `json:"queries_cancelled"`
	// Mutable-corpus counters: IngestsTotal documents appended via the
	// ingestion API, CompactionsTotal folds the corpora completed (including
	// tombstone-only ones and those of corpora since removed) and
	// CompactionErrors background folds that failed — both never decrease —
	// CorporaDeleted corpora unregistered, DeltaDocs the current total of
	// ingested-but-uncompacted documents across all corpora.
	IngestsTotal     int64 `json:"ingests_total"`
	CompactionsTotal int64 `json:"compactions_total"`
	CompactionErrors int64 `json:"compaction_errors"`
	CorporaDeleted   int64 `json:"corpora_deleted"`
	DeltaDocs        int   `json:"delta_docs"`
	// Durability counters: DocumentDeletes documents tombstoned via
	// DELETE .../documents/{doc}, DocumentUpdates ingests that replaced an
	// existing document, WALAppends/WALBytes the write-ahead logs' lifetime
	// appends and current total size, WALReplayedDocs documents recovered by
	// WAL replay at startup, TombstonesLive deleted-but-uncompacted
	// documents still being masked, CompactionSwaps crash-safe manifest
	// swaps completed, RecoveryMillis total startup WAL replay time.
	DocumentDeletes int64   `json:"document_deletes"`
	DocumentUpdates int64   `json:"document_updates"`
	WALAppends      uint64  `json:"wal_appends"`
	WALBytes        int64   `json:"wal_bytes"`
	WALReplayedDocs uint64  `json:"wal_replayed_docs"`
	TombstonesLive  int64   `json:"tombstones_live"`
	CompactionSwaps uint64  `json:"compaction_swaps"`
	RecoveryMillis  float64 `json:"recovery_ms"`
	// Distributed-execution counters. Coordinator side: RemoteAttempts
	// counts every shard-eval attempt against a worker (first tries,
	// retries, and hedges), RemoteRetries the attempts after the first for
	// a shard, RemoteHedgesFired hedge attempts launched after the latency
	// threshold, RemoteHedgeWins hedges whose response was used,
	// RemoteCorruptPartials responses rejected by checksum verification,
	// NodeUnhealthy worker up→down health transitions, BreakerOpen circuit-
	// breaker trips, DegradedQueries partial=ok responses that were missing
	// shards. Worker side: ShardEvalsServed counts shard evaluations
	// answered on /v1/internal/shard-eval.
	RemoteAttempts        int64 `json:"remote_attempts"`
	RemoteRetries         int64 `json:"remote_retries"`
	RemoteHedgesFired     int64 `json:"remote_hedges_fired"`
	RemoteHedgeWins       int64 `json:"remote_hedge_wins"`
	RemoteCorruptPartials int64 `json:"remote_corrupt_partials"`
	NodeUnhealthy         int64 `json:"node_unhealthy"`
	BreakerOpen           int64 `json:"breaker_open"`
	DegradedQueries       int64 `json:"degraded_queries"`
	ShardEvalsServed      int64 `json:"shard_evals_served"`
	// Planner counters: PlansReordered queries whose statistics-free plan
	// changed the evaluation order, PlanTimeMicros cumulative planning time.
	PlansReordered int64 `json:"plans_reordered"`
	PlanTimeMicros int64 `json:"plan_time_us"`
	// Block-store residency counters (process-wide across every mmap'd
	// block store): StoreCacheBytes decoded posting bytes currently resident
	// in the shared block cache, StoreCacheHits/Misses block lookups served
	// from / missing the cache, StoreBlockDecodes blocks actually decoded
	// (misses collapse under singleflight, so decodes <= misses), and
	// StoreEvictions blocks dropped by the CLOCK sweep to hold the budget.
	StoreCacheBytes   int64 `json:"store_cache_bytes"`
	StoreCacheHits    int64 `json:"store_cache_hits"`
	StoreCacheMisses  int64 `json:"store_cache_misses"`
	StoreBlockDecodes int64 `json:"store_block_decodes"`
	StoreEvictions    int64 `json:"store_evictions"`
	// Jobs is the async job subsystem's view: lifetime counters, jobs by
	// state, and queue depth in shard evaluations.
	Jobs jobs.Snapshot `json:"jobs"`
}

func (m *Metrics) enter() {
	n := m.inFlight.Add(1)
	for {
		peak := m.peakInFlight.Load()
		if n <= peak || m.peakInFlight.CompareAndSwap(peak, n) {
			return
		}
	}
}

func (m *Metrics) exit() { m.inFlight.Add(-1) }
