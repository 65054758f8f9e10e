// Command kokod serves KOKO queries over HTTP: a multi-corpus registry of
// persisted .koko stores (and optional built-in demo corpora) behind a
// concurrent query service with a normalized-query result cache.
//
//	kokod -load cafes=cafes.koko -load wiki=wiki.koko
//	kokod -dir /data/corpora           # registers every *.koko in the dir
//	kokod -demo                        # two small in-memory demo corpora
//	kokod -demo -shards 4              # partition each corpus into 4 doc-range
//	                                   # shards; queries fan out and merge
//
// A query's only parallelism is its shard fan-out: each shard evaluates its
// documents in order, and how many shards of one query evaluate at once is
// derived from -pool (2×GOMAXPROCS / pool, at least 1). -workers is
// accepted for old command lines and ignored.
//
//	curl -s localhost:7333/v1/corpora
//	curl -s localhost:7333/v1/query -d '{
//	  "corpus": "demo-cafes",
//	  "query": "extract x:Entity from \"blogs\" if () satisfying x (str(x) contains \"Cafe\" {1.0}) with threshold 0.5"
//	}'
//
// Endpoints: POST /v1/query (buffered, or NDJSON streaming with ?stream=1 /
// Accept: application/x-ndjson), POST /v1/validate, GET /v1/corpora,
// GET /v1/corpora/{name}/stats, POST /v1/corpora/{name}/reload,
// POST /v1/corpora/{name}/documents (live ingestion),
// POST /v1/corpora/{name}/compact, DELETE /v1/corpora/{name},
// POST/GET /v1/jobs, GET /v1/jobs/{id}[/results], DELETE /v1/jobs/{id},
// GET /v1/healthz, GET /v1/metrics.
//
// Async jobs: POST /v1/jobs with {"corpus": ..., "queries": [...]} runs a
// query batch shard-at-a-time on the same worker pool as interactive
// queries; poll GET /v1/jobs/{id}, fetch (partial) results at
// GET /v1/jobs/{id}/results, cancel with DELETE. -max-jobs bounds active
// jobs, -job-results-ttl how long finished ones stay fetchable.
//
// Mutable corpora: POST /v1/corpora/{name}/documents with {"name": ...,
// "text": ...} upserts one document into the corpus's delta index and seals
// a new generation — the document is queryable immediately and queries are
// never blocked by ingestion (re-using a document name replaces it).
// DELETE /v1/corpora/{name}/documents/{doc} tombstones a document by name.
// Each corpus owns its compaction: it folds its delta into its base shards
// in the background when the delta reaches -max-delta-docs, when its WAL
// reaches -wal-max-bytes, and every -compact-interval; an explicit
// POST /v1/corpora/{name}/compact folds synchronously. kokod only passes
// the flags through to the corpus config.
//
// Durability: with -data-dir set, every corpus writes ingests and deletes
// through a per-corpus write-ahead log under <data-dir>/<name>/ before
// acknowledging them. After a crash or kill -9, restarting with the same
// -data-dir replays each corpus's WAL and serves exactly the acknowledged
// state; corpora created purely over the API come back too. -wal-sync
// picks the fsync policy (none, batch group-commit, always) and
// -wal-max-bytes bounds the log (the corpus folds it into the shard files
// past that size).
//
// Distributed execution: -role coordinator -worker host:port -worker ...
// discovers the workers' corpora, replicates each shard across -replicas
// workers, and serves the full query API locally with every shard evaluated
// remotely (POST /v1/internal/shard-eval on the workers). Failed attempts
// are retried against replicas with exponential backoff; straggling shards
// are hedged after -hedge-after (0 = adaptive from observed p95 latency);
// repeatedly failing workers trip a per-node circuit breaker and are pinged
// every -health-interval until they recover. ?partial=ok on /v1/query opts
// into a degraded response when every replica of some shard is down.
// Workers are plain kokod processes (-role worker is documentation only).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/koko/wal"
	"repro/internal/server"
)

// loadFlags accumulates repeated -load values ("name=path" or bare "path").
type loadFlags []string

func (l *loadFlags) String() string     { return strings.Join(*l, ",") }
func (l *loadFlags) Set(v string) error { *l = append(*l, v); return nil }

// ttlFlags accumulates repeated -cache-ttl values: a bare duration sets the
// default TTL for every corpus, "name=duration" overrides it per corpus
// ("name=0" disables expiry for that corpus).
type ttlFlags struct {
	def time.Duration
	per map[string]time.Duration
}

func (t *ttlFlags) String() string {
	if t == nil || (t.def == 0 && len(t.per) == 0) {
		return ""
	}
	parts := []string{}
	if t.def != 0 {
		parts = append(parts, t.def.String())
	}
	for name, d := range t.per {
		parts = append(parts, name+"="+d.String())
	}
	return strings.Join(parts, ",")
}

func (t *ttlFlags) Set(v string) error {
	if i := strings.IndexByte(v, '='); i >= 0 {
		d, err := time.ParseDuration(v[i+1:])
		if err != nil {
			return fmt.Errorf("cache-ttl %q: %w", v, err)
		}
		if t.per == nil {
			t.per = map[string]time.Duration{}
		}
		t.per[v[:i]] = d
		return nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return fmt.Errorf("cache-ttl %q: %w", v, err)
	}
	t.def = d
	return nil
}

func main() {
	var loads loadFlags
	addr := flag.String("addr", ":7333", "listen address")
	dir := flag.String("dir", "", "directory to scan for *.koko stores")
	demo := flag.Bool("demo", false, "register two built-in in-memory demo corpora")
	pool := flag.Int("pool", 0, "max queries evaluating concurrently (0 = 2×GOMAXPROCS)")
	cache := flag.Int("cache", 0, "result-cache entries (0 = default 256, negative = disabled)")
	cacheTuples := flag.Int("cache-tuples", 0, "result-cache tuple budget across all entries (0 = default 100000, negative = unbounded)")
	flag.Int("workers", 1, "deprecated and ignored: a query parallelizes only across shards")
	shards := flag.Int("shards", 1, "doc-range shards per loaded corpus; queries fan out across shards (sharded manifests keep their on-disk count)")
	maxJobs := flag.Int("max-jobs", 0, "max async jobs pending or running at once (0 = default 16)")
	jobTTL := flag.Duration("job-results-ttl", 0, "how long finished jobs stay fetchable (0 = default 15m, negative = until deleted)")
	jobTuples := flag.Int("job-retained-tuples", 0, "total tuples retained across finished jobs; oldest evicted beyond it (0 = default 200000, negative = unbounded)")
	maxDelta := flag.Int("max-delta-docs", 0, "ingested docs a corpus's delta may hold before auto-compaction (0 = default 256, negative = no auto-compaction)")
	dataDir := flag.String("data-dir", "", "durable corpus state directory: per-corpus WAL + shard store, replayed on restart (empty = memory-only)")
	walSync := flag.String("wal-sync", "batch", "WAL fsync policy with -data-dir: none, batch (group commit), or always")
	walMaxBytes := flag.Int64("wal-max-bytes", 64<<20, "WAL size that triggers a background compaction with -data-dir (0 = no size trigger)")
	compactEvery := flag.Duration("compact-interval", 0, "background compaction period: every corpus folds its pending delta into its base shards this often (0 = disabled)")
	cacheMinCost := flag.Duration("cache-min-cost", 0, "cost-aware cache admission: only cache results whose evaluation took at least this long (0 = cache everything)")
	storeCache := flag.Int64("store-cache-bytes", 0, "decoded-block cache budget for mmap'd block stores, in bytes (0 = default 256MiB, negative = unbounded)")
	role := flag.String("role", "standalone", "node role: standalone, worker (serves shard evaluations; same as standalone), or coordinator (fans queries out to -worker nodes)")
	var workerAddrs loadFlags
	flag.Var(&workerAddrs, "worker", "worker node address for -role coordinator, as host:port or URL (repeatable or comma-separated)")
	replicas := flag.Int("replicas", 2, "workers each shard is replicated across with -role coordinator (clamped to the worker count)")
	attemptTimeout := flag.Duration("attempt-timeout", 0, "per-attempt deadline for one remote shard evaluation (0 = default 2s)")
	retries := flag.Int("retries", 0, "total attempts per shard against distinct replicas — first try plus retries (0 = default 3)")
	hedgeAfter := flag.Duration("hedge-after", 0, "launch a hedged shard attempt on another replica after this delay (0 = adaptive from observed p95 latency, negative = no hedging)")
	healthInterval := flag.Duration("health-interval", 2*time.Second, "worker health-check ping period with -role coordinator (0 = no active checks)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "graceful-shutdown budget: in-flight requests and running jobs get this long to finish")
	var cacheTTL ttlFlags
	flag.Var(&cacheTTL, "cache-ttl", "result-cache entry TTL, as a duration or name=duration per corpus (repeatable; entries expire lazily on lookup)")
	flag.Var(&loads, "load", "corpus to serve, as name=path.koko or path.koko (repeatable)")
	flag.Parse()

	syncPolicy, err := wal.ParseSyncPolicy(*walSync)
	if err != nil {
		log.Fatalf("kokod: %v", err)
	}
	svc := server.NewService(server.Config{
		MaxConcurrent:     *pool,
		CacheSize:         *cache,
		CacheMaxTuples:    *cacheTuples,
		Shards:            *shards,
		MaxJobs:           *maxJobs,
		JobResultsTTL:     *jobTTL,
		JobRetainedTuples: *jobTuples,
		CacheTTL:          cacheTTL.def,
		CacheTTLPerCorpus: cacheTTL.per,
		CacheMinCost:      *cacheMinCost,
		MaxDeltaDocs:      *maxDelta,
		CompactInterval:   *compactEvery,
		DataDir:           *dataDir,
		WALSync:           syncPolicy,
		WALMaxBytes:       *walMaxBytes,
		StoreCacheBytes:   *storeCache,
	})
	reg := svc.Registry()

	for _, spec := range loads {
		name, path := "", spec
		if i := strings.IndexByte(spec, '='); i >= 0 {
			name, path = spec[:i], spec[i+1:]
		}
		if err := reg.LoadFile(name, path); err != nil {
			log.Fatalf("kokod: %v", err)
		}
	}
	if *dir != "" {
		paths, err := filepath.Glob(filepath.Join(*dir, "*.koko"))
		if err != nil {
			log.Fatalf("kokod: scan %s: %v", *dir, err)
		}
		for _, p := range paths {
			if err := reg.LoadFile("", p); err != nil {
				log.Fatalf("kokod: %v", err)
			}
		}
	}
	if *demo {
		if err := server.RegisterDemoCorpora(reg, *shards); err != nil {
			log.Fatalf("kokod: %v", err)
		}
	}
	if *dataDir != "" {
		// Recover corpora created over the API in a previous run (the
		// explicit -load/-dir/-demo registrations above already replayed
		// their own WALs).
		recovered, err := reg.LoadDurable()
		if err != nil {
			log.Fatalf("kokod: %v", err)
		}
		for _, name := range recovered {
			log.Printf("kokod: recovered durable corpus %q from %s", name, *dataDir)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch *role {
	case "standalone", "worker":
		if len(workerAddrs) > 0 {
			log.Fatalf("kokod: -worker requires -role coordinator")
		}
	case "coordinator":
		var addrs []string
		for _, w := range workerAddrs {
			for _, a := range strings.Split(w, ",") {
				if a = strings.TrimSpace(a); a != "" {
					addrs = append(addrs, a)
				}
			}
		}
		if len(addrs) == 0 {
			log.Fatalf("kokod: -role coordinator requires at least one -worker")
		}
		names, err := svc.ConnectWorkers(ctx, server.RemoteConfig{
			Workers:        addrs,
			Replicas:       *replicas,
			AttemptTimeout: *attemptTimeout,
			MaxAttempts:    *retries,
			HedgeAfter:     *hedgeAfter,
			HealthInterval: *healthInterval,
		})
		if err != nil {
			log.Fatalf("kokod: connect workers: %v", err)
		}
		log.Printf("kokod: coordinating %d corpora across %d workers (replicas=%d): %s",
			len(names), len(addrs), *replicas, strings.Join(names, ", "))
	default:
		log.Fatalf("kokod: unknown -role %q (want standalone, worker, or coordinator)", *role)
	}

	if reg.Len() == 0 {
		fmt.Fprintln(os.Stderr, "kokod: no corpora registered; use -load, -dir, -demo, a -data-dir with durable state, or -role coordinator with -worker")
		os.Exit(2)
	}
	for _, info := range reg.List() {
		src := info.Source
		if src == "" {
			src = "(in-memory)"
		}
		if info.Durable {
			src += " (durable)"
		}
		log.Printf("kokod: corpus %q gen=%d shards=%d docs=%d sentences=%d %s",
			info.Name, info.Generation, info.Shards, info.Documents, info.Sentences, src)
	}

	srv := &http.Server{
		Addr:    *addr,
		Handler: svc.Handler(),
		// Bound how long a client may dawdle before its connection costs us
		// anything: slow or stalled headers/bodies time out, idle keep-alive
		// connections are reaped. No WriteTimeout — NDJSON streams and long
		// queries legitimately write for longer than any fixed bound.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	log.Printf("kokod: serving %d corpora on %s", reg.Len(), *addr)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("kokod: %v", err)
		}
	case <-ctx.Done():
		// Graceful shutdown, in dependency order and all inside one drain
		// budget: stop accepting connections and wait for in-flight requests
		// (streams included), then let running jobs finish, then close WAL
		// handles so batched writes hit disk. Only after the budget expires
		// are stragglers cut off.
		log.Printf("kokod: shutting down (drain budget %s)", *drainTimeout)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("kokod: shutdown: %v", err)
		}
		if err := svc.Jobs().Drain(shutdownCtx); err != nil {
			log.Printf("kokod: job drain: %v (cancelling remaining jobs)", err)
		}
		cancel()
	}
	svc.Close()
}
