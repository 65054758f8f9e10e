package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/koko"
	"repro/koko/remote"
)

// RemoteConfig wires a coordinator to its worker nodes.
type RemoteConfig struct {
	// Workers are the worker base URLs (e.g. http://10.0.0.2:7333).
	Workers []string
	// Replicas is how many workers each shard is routed to (clamped to
	// [1, len(Workers)]). With the demo/round-robin placement every worker
	// holds every corpus, so any replica can serve any shard.
	Replicas int
	// HedgeAfter tunes hedged shard attempts (see remote.PoolConfig); every
	// other pool setting keeps its remote.PoolConfig default.
	HedgeAfter time.Duration
	// HealthInterval > 0 starts a background health loop pinging every
	// worker that often.
	HealthInterval time.Duration
}

// ConnectWorkers turns this service into a coordinator: it discovers the
// corpora every worker serves, builds a replicated round-robin shard
// placement per corpus, and registers a remote routing engine for each —
// from then on those corpora answer queries, streams, and jobs here, with
// every shard evaluated on the workers. Returns the corpus names
// registered. ctx bounds discovery and owns the background health loop.
func (s *Service) ConnectWorkers(ctx context.Context, rc RemoteConfig) ([]string, error) {
	if len(rc.Workers) == 0 {
		return nil, fmt.Errorf("remote: no workers given")
	}
	workers := make([]string, 0, len(rc.Workers))
	for _, w := range rc.Workers {
		w = strings.TrimRight(strings.TrimSpace(w), "/")
		if w == "" {
			continue
		}
		if !strings.Contains(w, "://") {
			w = "http://" + w
		}
		workers = append(workers, w)
	}
	pool := remote.NewPool(remote.PoolConfig{HedgeAfter: rc.HedgeAfter})
	byWorker, err := discoverAll(ctx, workers)
	if err != nil {
		return nil, err
	}

	// Union of corpus names, sorted for deterministic registration order.
	nameSet := map[string]bool{}
	for _, corpora := range byWorker {
		for name := range corpora {
			nameSet[name] = true
		}
	}
	names := make([]string, 0, len(nameSet))
	for name := range nameSet {
		names = append(names, name)
	}
	sort.Strings(names)

	var registered []string
	for _, name := range names {
		// Nodes that hold this corpus, in the caller's worker order.
		var nodes []string
		var infos []CorpusInfo
		for _, w := range workers {
			if info, ok := byWorker[w][name]; ok {
				nodes = append(nodes, w)
				infos = append(infos, info)
			}
		}
		ref := infos[0]
		gen := ref.Generation
		for i, info := range infos[1:] {
			if info.Shards != ref.Shards || info.Documents != ref.Documents || info.Sentences != ref.Sentences {
				return registered, fmt.Errorf("remote: corpus %q disagrees across workers: %s has shards=%d docs=%d sents=%d, %s has shards=%d docs=%d sents=%d",
					name, nodes[0], ref.Shards, ref.Documents, ref.Sentences,
					nodes[i+1], info.Shards, info.Documents, info.Sentences)
			}
			if info.Generation != ref.Generation {
				// Same data, different local generation counters (workers
				// booted differently): serve unpinned rather than 409 half
				// the replicas.
				gen = 0
			}
		}
		meta := remote.Meta{
			Generation: gen,
			Documents:  ref.Documents,
			Sentences:  ref.Sentences,
		}
		if stats, err := fetchShardStats(ctx, nodes[0], name); err == nil {
			meta.Shards = stats
		} else {
			log.Printf("server: corpus %q: shard stats from %s: %v (stats will report empty)", name, nodes[0], err)
		}
		eng := remote.NewEngine(pool, remote.EngineConfig{
			Corpus:    name,
			Placement: koko.BuildPlacement(ref.Shards, nodes, rc.Replicas),
			Meta:      meta,
			Parallel:  s.shardPar,
		})
		s.reg.RegisterRemote(name, "remote:"+strings.Join(nodes, ","), eng)
		registered = append(registered, name)
	}
	s.rpool.Store(pool)
	if rc.HealthInterval > 0 {
		go pool.HealthLoop(ctx, rc.HealthInterval)
	}
	return registered, nil
}

// discoverTimeout bounds how long discovery retries unreachable workers
// before failing: workers and coordinator typically boot together.
const discoverTimeout = 10 * time.Second

// discoverAll lists every worker's corpora, retrying unreachable workers
// for up to discoverTimeout.
func discoverAll(ctx context.Context, workers []string) (map[string]map[string]CorpusInfo, error) {
	deadline := time.Now().Add(discoverTimeout)
	byWorker := map[string]map[string]CorpusInfo{}
	for {
		var lastErr error
		for _, w := range workers {
			if _, done := byWorker[w]; done {
				continue
			}
			var resp struct {
				Corpora []CorpusInfo `json:"corpora"`
			}
			if err := fetchJSON(ctx, w+"/v1/corpora", &resp); err != nil {
				lastErr = fmt.Errorf("worker %s: %w", w, err)
				continue
			}
			m := map[string]CorpusInfo{}
			for _, info := range resp.Corpora {
				if info.Remote {
					// Never route through another coordinator's routing
					// view: chains hide where the data actually is.
					continue
				}
				m[info.Name] = info
			}
			byWorker[w] = m
		}
		if len(byWorker) == len(workers) {
			return byWorker, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("remote: discovery: %w", lastErr)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(250 * time.Millisecond):
		}
	}
}

// fetchShardStats pulls one corpus's per-shard statistics from a worker.
func fetchShardStats(ctx context.Context, worker, name string) ([]koko.ShardStat, error) {
	var resp statsResponse
	if err := fetchJSON(ctx, worker+"/v1/corpora/"+name+"/stats", &resp); err != nil {
		return nil, err
	}
	out := make([]koko.ShardStat, 0, len(resp.Shards))
	for _, ss := range resp.Shards {
		out = append(out, koko.ShardStat{
			Shard:     ss.Shard,
			Documents: ss.Documents,
			Sentences: ss.Sentences,
			Tokens:    ss.Tokens,
			Delta:     ss.Delta,
			Index: koko.IndexStats{
				Words: ss.Index.Words, Entities: ss.Index.Entities,
				PLNodes: ss.Index.PLNodes, POSNodes: ss.Index.POSNodes,
				PLCompression: ss.Index.PLCompression, POSCompression: ss.Index.POSCompression,
			},
		})
	}
	return out, nil
}

// fetchJSON fetches a URL with a bounded deadline and decodes the body.
func fetchJSON(ctx context.Context, url string, v any) error {
	rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
