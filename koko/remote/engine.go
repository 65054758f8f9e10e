package remote

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/koko"
)

// Meta is the shape of a remote corpus as discovered from its workers:
// enough for the coordinator to answer stats and size questions without a
// round trip per call.
type Meta struct {
	// Generation pins the worker-side snapshot generation every shard-eval
	// carries (0 = unpinned).
	Generation uint64
	Documents  int
	Sentences  int
	Shards     []koko.ShardStat
}

// EngineConfig assembles a remote Engine.
type EngineConfig struct {
	// Corpus is the corpus name as the workers register it.
	Corpus string
	// Placement routes each shard to its replica nodes (preference order).
	Placement koko.Placement
	// Meta is the discovered corpus shape (zero value: sizes and stats
	// report empty; generation is unpinned).
	Meta Meta
	// Parallel bounds the per-query shard fan-out (0 = min(shards,
	// GOMAXPROCS), like a local sharded engine).
	Parallel int
}

// Engine is a koko.Querier whose shards evaluate on remote kokod workers:
// the coordinator side of distributed execution. Each StreamShard call walks
// the shard's replica placement with per-attempt deadlines, exponential
// backoff + jitter between attempts, hedged requests after a latency
// threshold, and the pool's per-node breaker/health state deciding which
// replica to try first. Shards merge through the same ordered fan-out
// (koko.StreamShards) as local shards, so a distributed query is
// byte-identical to a single-node run. Safe for concurrent use.
type Engine struct {
	pool      *Pool
	corpus    string
	placement koko.Placement
	meta      Meta
	parallel  atomic.Int32
}

var _ koko.Querier = (*Engine)(nil)

// NewEngine builds a remote engine over pool. Every node named in the
// placement is registered with the pool so health checks cover it.
func NewEngine(pool *Pool, cfg EngineConfig) *Engine {
	e := &Engine{pool: pool, corpus: cfg.Corpus, placement: cfg.Placement, meta: cfg.Meta}
	par := cfg.Parallel
	if par < 1 {
		if par = len(cfg.Placement.Replicas); par > runtime.GOMAXPROCS(0) {
			par = runtime.GOMAXPROCS(0)
		}
		if par < 1 {
			par = 1
		}
	}
	e.parallel.Store(int32(par))
	for _, reps := range cfg.Placement.Replicas {
		for _, addr := range reps {
			pool.Node(addr)
		}
	}
	return e
}

// Corpus returns the remote corpus name.
func (e *Engine) Corpus() string { return e.corpus }

// Pool returns the fault-tolerance pool the engine evaluates through
// (shared across every engine on one coordinator).
func (e *Engine) Pool() *Pool { return e.pool }

// Placement returns the shard-to-node routing table.
func (e *Engine) Placement() koko.Placement { return e.placement }

// SetParallelism bounds how many shards evaluate concurrently per query.
func (e *Engine) SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	e.parallel.Store(int32(n))
}

// NumShards returns the placement's shard count.
func (e *Engine) NumShards() int { return len(e.placement.Replicas) }

// NumDocuments reports the discovered corpus document count.
func (e *Engine) NumDocuments() int { return e.meta.Documents }

// NumSentences reports the discovered corpus sentence count.
func (e *Engine) NumSentences() int { return e.meta.Sentences }

// ShardStats returns the discovered per-shard statistics.
func (e *Engine) ShardStats() []koko.ShardStat {
	return append([]koko.ShardStat(nil), e.meta.Shards...)
}

// Run fans an already-parsed query out across remote shards (bounded by the
// engine's parallelism) as a lazy stream: each shard's worker delivers
// chunked batches over /v1/internal/shard-eval, and the coordinator's
// ordered merge releases them in global document order — a giant result
// never materializes on worker or coordinator. With qo.Degraded, a shard
// whose every replica fails yields a Failed marker instead of failing the
// stream. Safe for concurrent use.
func (e *Engine) Run(ctx context.Context, p *koko.ParsedQuery, qo *koko.QueryOptions) (*koko.TupleSeq, error) {
	degraded := qo != nil && qo.Degraded
	return koko.StreamShards(ctx, e.NumShards(), int(e.parallel.Load()),
		func(ctx context.Context, shard int, emit func(koko.Batch) error) (*koko.Result, error) {
			return e.StreamShard(ctx, shard, p, qo, emit)
		}, degraded), nil
}

// request renders the wire request for one shard.
func (e *Engine) request(shard int, p *koko.ParsedQuery, qo *koko.QueryOptions) *ShardEvalRequest {
	req := &ShardEvalRequest{
		Corpus:     e.corpus,
		Shard:      shard,
		Query:      p.Canonical(),
		Generation: e.meta.Generation,
	}
	if qo != nil {
		req.Explain = qo.Explain
	}
	return req
}

// pickNode selects the replica to try for (shard, rotation), preferring
// nodes that are up with a willing breaker; when none qualifies it falls
// back to any replica (a query beats a guess — health and breaker state
// lag reality), still honoring exclude. Returns nil only when every
// replica is excluded.
func (e *Engine) pickNode(shard, rot int, exclude *nodeState) *nodeState {
	reps := e.placement.Replicas[shard]
	now := time.Now()
	var fallback *nodeState
	for k := 0; k < len(reps); k++ {
		n := e.pool.Node(reps[(rot+k)%len(reps)])
		if n == exclude {
			continue
		}
		if n.Up() && n.tryAcquire(now) {
			return n
		}
		if fallback == nil {
			fallback = n
		}
	}
	return fallback
}

// StreamShard evaluates one shard remotely as a chunked stream: tuple
// batches arrive over /v1/internal/shard-eval as the worker evaluates,
// already in global coordinates, each batch CRC-verified before emit and
// forwarded as the worker's bytes.
// Up to MaxAttempts tries walk the shard's replicas (rotating the starting
// replica by attempt), with jittered exponential backoff between tries.
// Since earlier batches may already have escaped downstream, a retry
// resumes instead of restarting: evaluation is deterministic and
// generation-pinned, so the next replica re-evaluates and skips the exact
// prefix already delivered (ShardEvalRequest.Skip). Hedging applies until a
// replica delivers its first batch: from that point the stream is claimed
// and the hedge is cancelled, so two replicas never interleave into one
// consumer. Exhausting every attempt yields a typed *ShardUnavailableError
// (errors.Is(err, ErrShardUnavailable)).
func (e *Engine) StreamShard(ctx context.Context, shard int, p *koko.ParsedQuery, qo *koko.QueryOptions, emit func(koko.Batch) error) (*koko.Result, error) {
	if shard < 0 || shard >= e.NumShards() {
		return nil, fmt.Errorf("remote: shard %d out of range (corpus %q has %d)", shard, e.corpus, e.NumShards())
	}
	req := e.request(shard, p, qo)
	max := e.pool.cfg.MaxAttempts
	delivered := 0
	var lastErr error
	for try := 0; try < max; try++ {
		if try > 0 {
			e.pool.counters.Retries.Add(1)
			select {
			case <-time.After(e.pool.backoffFor(try)):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		areq := *req
		areq.Skip = delivered
		done, sent, err := e.chunkTry(ctx, shard, try, &areq, emit)
		if err == nil {
			return done.Summary, nil
		}
		delivered += sent
		var ee *emitError
		if errors.As(err, &ee) {
			// The consumer is gone; retrying cannot help.
			return nil, ee.err
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		lastErr = err
	}
	return nil, &ShardUnavailableError{Corpus: e.corpus, Shard: shard, Attempts: max, Last: lastErr}
}

// errHedgeLost marks the losing side of a hedged chunked attempt: another
// replica claimed the stream first. It never surfaces to callers — the
// loser's outcome is discarded.
var errHedgeLost = errors.New("remote: hedged chunked attempt lost the stream claim")

// chunkTry runs one try of a chunked shard eval: a primary attempt, plus a
// hedged attempt racing on another replica if the hedge threshold passes
// before the primary delivers anything. The first attempt to push a tuple
// batch downstream (or to finish successfully, for empty results) claims
// the stream; the loser is cancelled and its batches are refused at the
// claim gate, so emit sees exactly one replica's deterministic sequence.
func (e *Engine) chunkTry(ctx context.Context, shard, rot int, req *ShardEvalRequest, emit func(koko.Batch) error) (*ChunkDone, int, error) {
	primary := e.pickNode(shard, rot, nil)
	if primary == nil {
		return nil, 0, fmt.Errorf("remote: corpus %q shard %d has no replica to try", e.corpus, shard)
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var mu sync.Mutex
	winner := 0
	cancels := map[int]context.CancelFunc{}
	// claim makes id the stream's owner if it is still unowned, cancelling
	// every other attempt; it reports whether id owns the stream.
	claim := func(id int) bool {
		mu.Lock()
		defer mu.Unlock()
		if winner == 0 {
			winner = id
			for k, c := range cancels {
				if k != id {
					c()
				}
			}
		}
		return winner == id
	}
	claimed := func() int {
		mu.Lock()
		defer mu.Unlock()
		return winner
	}
	type outcome struct {
		id    int
		done  *ChunkDone
		sent  int
		err   error
		hedge bool
	}
	ch := make(chan outcome, 2) // buffered: a losing attempt must not leak its goroutine
	launch := func(id int, n *nodeState, hedge bool) {
		actx, acancel := context.WithCancel(cctx)
		mu.Lock()
		cancels[id] = acancel
		mu.Unlock()
		go func() {
			done, sent, err := e.pool.EvalShardChunked(actx, n, req, func(b koko.Batch) error {
				if !claim(id) {
					return errHedgeLost
				}
				return emit(b)
			})
			ch <- outcome{id: id, done: done, sent: sent, err: err, hedge: hedge}
		}()
	}
	launch(1, primary, false)
	inFlight := 1
	var hedgeC <-chan time.Time
	if d, ok := e.pool.hedgeDelay(primary); ok {
		t := time.NewTimer(d)
		defer t.Stop()
		hedgeC = t.C
	}
	var lastErr error
	for inFlight > 0 {
		select {
		case o := <-ch:
			inFlight--
			switch w := claimed(); {
			case w == o.id:
				// The stream's owner finished; its outcome is the try's
				// outcome, error or not — its tuples already escaped, so sent
				// is the resume point either way.
				if o.err == nil && o.hedge {
					e.pool.counters.HedgeWins.Add(1)
				}
				return o.done, o.sent, o.err
			case w != 0:
				// Losing side of the hedge; the owner's outcome is still in
				// flight.
			case o.err == nil:
				// Success without ever emitting (an empty shard result):
				// claim so the other attempt cannot start emitting after we
				// return. Losing this race means the other side's first batch
				// just went downstream — keep waiting for it instead.
				if claim(o.id) {
					if o.hedge {
						e.pool.counters.HedgeWins.Add(1)
					}
					return o.done, o.sent, nil
				}
			default:
				lastErr = o.err
			}
		case <-hedgeC:
			hedgeC = nil // fire at most one hedge per try
			if claimed() == 0 {
				if h := e.pickNode(shard, rot+1, primary); h != nil {
					e.pool.counters.HedgesFired.Add(1)
					launch(2, h, true)
					inFlight++
				}
			}
		}
	}
	return nil, 0, lastErr
}
