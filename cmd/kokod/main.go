// Command kokod serves KOKO queries over HTTP: a multi-corpus registry of
// persisted .koko stores (and optional built-in demo corpora) behind a
// concurrent query service with a normalized-query result cache.
//
//	kokod -load cafes=cafes.koko       # one store, named cafes
//	kokod -load /data/corpora          # every *.koko in the dir, by file name
//	kokod -demo -shards 4              # demo corpora in 4 doc-range shards
//	kokod -demo -data-dir /data/kokod  # durable: WAL-logged, replayed at start
//	kokod -role coordinator -worker w1:7333 -worker w2:7333
//
//	curl -s localhost:7333/v1/query -d '{
//	  "corpus": "demo-cafes",
//	  "query": "extract x:Entity from \"blogs\" if () satisfying x (str(x) contains \"Cafe\" {1.0}) with threshold 0.5"
//	}'
//
// Endpoints: POST /v1/query (buffered, or NDJSON streaming with ?stream=1 /
// Accept: application/x-ndjson; ?partial=ok accepts a degraded answer from
// a coordinator), POST /v1/validate, GET /v1/corpora,
// GET /v1/corpora/{name}/stats, POST /v1/corpora/{name}/reload,
// POST /v1/corpora/{name}/documents, DELETE /v1/corpora/{name}/documents/{doc},
// POST /v1/corpora/{name}/compact, DELETE /v1/corpora/{name},
// POST/GET /v1/jobs, GET /v1/jobs/{id}[/results], DELETE /v1/jobs/{id},
// GET /v1/healthz, GET /v1/metrics.
//
// A flag exists only for a deployment setting or for a value the
// repository's own tools pass; every other knob (result-cache bounds, job
// limits, remote retry and breaker tuning) is a constant of the package
// that owns it.
//
//	-addr              :7333       listen address
//	-load              (none)      name=store.koko, store.koko, or a directory (repeatable)
//	-demo              false       register two built-in in-memory demo corpora
//	-shards            1           doc-range shards per loaded plain store
//	-pool              0           queries evaluating at once (0 = 2×GOMAXPROCS)
//	-store-cache-bytes 0           decoded-block cache budget (0 = 256 MiB, <0 = unbounded)
//	-max-delta-docs    0           delta docs that trigger a compaction (0 = 256, <0 = off)
//	-compact-interval  0           periodic compaction of every corpus (0 = off)
//	-data-dir          (none)      per-corpus WAL + shard files, replayed at startup
//	-wal-sync          batch       WAL fsync policy: none, batch, or always
//	-wal-max-bytes     64 MiB      WAL size that triggers a compaction (0 = off)
//	-role              standalone  standalone, worker (the same), or coordinator
//	-worker            (none)      a coordinator's worker address (repeatable)
//	-replicas          2           workers each shard is replicated across
//	-hedge-after       0           hedge delay (0 = adaptive p95, <0 = off)
//	-health-interval   2s          worker health-check period (0 = off)
//	-drain-timeout     15s         graceful-shutdown budget for requests and jobs
//	-workers           1           deprecated and ignored
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

// listFlag accumulates a repeatable string flag.
type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, ",") }
func (l *listFlag) Set(v string) error { *l = append(*l, v); return nil }

// options is kokod's parsed command line.
type options struct {
	addr, dataDir, walSync, role     string
	demo                             bool
	pool, shards, maxDelta, replicas int
	walMaxBytes, storeCacheBytes     int64
	compactInterval, hedgeAfter      time.Duration
	healthInterval, drainTimeout     time.Duration
	loads, workers                   listFlag
}

// registerFlags declares kokod's flags on fs and returns where they land.
func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.addr, "addr", ":7333", "listen address")
	fs.Var(&o.loads, "load", "corpus to serve: name=path.koko, path.koko, or a directory whose *.koko stores register under their file names (repeatable)")
	fs.BoolVar(&o.demo, "demo", false, "register two built-in in-memory demo corpora")
	fs.IntVar(&o.shards, "shards", 1, "doc-range shards per loaded corpus; queries fan out across shards (sharded manifests keep their on-disk count)")
	fs.IntVar(&o.pool, "pool", 0, "max queries evaluating concurrently (0 = 2×GOMAXPROCS)")
	fs.Int("workers", 1, "deprecated and ignored: a query parallelizes only across shards")
	fs.Int64Var(&o.storeCacheBytes, "store-cache-bytes", 0, "decoded-block cache budget for mmap'd block stores, in bytes (0 = default 256MiB, negative = unbounded)")
	fs.IntVar(&o.maxDelta, "max-delta-docs", 0, "ingested docs a corpus's delta may hold before auto-compaction (0 = default 256, negative = no auto-compaction)")
	fs.DurationVar(&o.compactInterval, "compact-interval", 0, "background compaction period: every corpus folds its pending delta into its base shards this often (0 = disabled)")
	fs.StringVar(&o.dataDir, "data-dir", "", "durable corpus state directory: per-corpus WAL + shard store, replayed on restart (empty = memory-only)")
	fs.StringVar(&o.walSync, "wal-sync", "batch", "WAL fsync policy with -data-dir: none, batch (group commit), or always")
	fs.Int64Var(&o.walMaxBytes, "wal-max-bytes", 64<<20, "WAL size that triggers a background compaction with -data-dir (0 = no size trigger)")
	fs.StringVar(&o.role, "role", "standalone", "node role: standalone, worker (serves shard evaluations; same as standalone), or coordinator (fans queries out to -worker nodes)")
	fs.Var(&o.workers, "worker", "worker node address for -role coordinator, as host:port or URL (repeatable or comma-separated)")
	fs.IntVar(&o.replicas, "replicas", 2, "workers each shard is replicated across with -role coordinator (clamped to the worker count)")
	fs.DurationVar(&o.hedgeAfter, "hedge-after", 0, "launch a hedged shard attempt on another replica after this delay (0 = adaptive from observed p95 latency, negative = no hedging)")
	fs.DurationVar(&o.healthInterval, "health-interval", 2*time.Second, "worker health-check ping period with -role coordinator (0 = no active checks)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 15*time.Second, "graceful-shutdown budget: in-flight requests and running jobs get this long to finish")
	return o
}

// loadCorpora registers every -load value. "name=path" registers one store
// under name; a bare path registers a store under its file name, or, when
// it is a directory, every *.koko store in it under its own file name. A
// directory takes no name, since it may hold several stores.
func loadCorpora(reg *server.Registry, specs []string) error {
	for _, spec := range specs {
		name, path, named := strings.Cut(spec, "=")
		if !named {
			name, path = "", spec
		}
		if st, err := os.Stat(path); err == nil && st.IsDir() {
			if named {
				return fmt.Errorf("-load %s: a directory takes no name; its stores register under their file names", spec)
			}
			paths, err := filepath.Glob(filepath.Join(path, "*.koko"))
			if err != nil {
				return fmt.Errorf("-load %s: %w", spec, err)
			}
			if len(paths) == 0 {
				return fmt.Errorf("-load %s: no *.koko stores in the directory", spec)
			}
			for _, p := range paths {
				if err := reg.LoadFile("", p); err != nil {
					return err
				}
			}
			continue
		}
		if err := reg.LoadFile(name, path); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()

	syncPolicy, err := wal.ParseSyncPolicy(o.walSync)
	if err != nil {
		log.Fatalf("kokod: %v", err)
	}
	svc := server.NewService(server.Config{
		MaxConcurrent:   o.pool,
		Shards:          o.shards,
		MaxDeltaDocs:    o.maxDelta,
		CompactInterval: o.compactInterval,
		DataDir:         o.dataDir,
		WALSync:         syncPolicy,
		WALMaxBytes:     o.walMaxBytes,
		StoreCacheBytes: o.storeCacheBytes,
	})
	reg := svc.Registry()

	if err := loadCorpora(reg, o.loads); err != nil {
		log.Fatalf("kokod: %v", err)
	}
	if o.demo {
		if err := server.RegisterDemoCorpora(reg, o.shards); err != nil {
			log.Fatalf("kokod: %v", err)
		}
	}
	if o.dataDir != "" {
		// Recover corpora created over the API in a previous run (the
		// explicit -load/-demo registrations above already replayed their
		// own WALs).
		recovered, err := reg.LoadDurable()
		if err != nil {
			log.Fatalf("kokod: %v", err)
		}
		for _, name := range recovered {
			log.Printf("kokod: recovered durable corpus %q from %s", name, o.dataDir)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch o.role {
	case "standalone", "worker":
		if len(o.workers) > 0 {
			log.Fatalf("kokod: -worker requires -role coordinator")
		}
	case "coordinator":
		if len(o.workers) == 0 {
			log.Fatalf("kokod: -role coordinator requires at least one -worker")
		}
		// ConnectWorkers trims each address and skips empty ones.
		addrs := strings.Split(o.workers.String(), ",")
		names, err := svc.ConnectWorkers(ctx, server.RemoteConfig{
			Workers:        addrs,
			Replicas:       o.replicas,
			HedgeAfter:     o.hedgeAfter,
			HealthInterval: o.healthInterval,
		})
		if err != nil {
			log.Fatalf("kokod: connect workers: %v", err)
		}
		log.Printf("kokod: coordinating %d corpora across %d workers (replicas=%d): %s",
			len(names), len(addrs), o.replicas, strings.Join(names, ", "))
	default:
		log.Fatalf("kokod: unknown -role %q (want standalone, worker, or coordinator)", o.role)
	}

	if reg.Len() == 0 {
		fmt.Fprintln(os.Stderr, "kokod: no corpora registered; use -load, -demo, a -data-dir with durable state, or -role coordinator with -worker")
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
		Addr:    o.addr,
		Handler: svc.Handler(),
		// Bound how long a client may dawdle before its connection costs us
		// anything: slow or stalled headers/bodies time out, idle keep-alive
		// connections are reaped. No WriteTimeout — NDJSON streams and long
		// queries legitimately write for longer than any fixed bound.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	log.Printf("kokod: serving %d corpora on %s", reg.Len(), o.addr)
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
		log.Printf("kokod: shutting down (drain budget %s)", o.drainTimeout)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
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
