package remote

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/koko"
)

// PoolConfig tunes the fault-tolerance layer shared by every Engine on one
// coordinator. Zero values take the documented defaults.
type PoolConfig struct {
	// AttemptTimeout bounds each individual shard-eval attempt (default 2s);
	// the caller's context still bounds the whole call.
	AttemptTimeout time.Duration
	// MaxAttempts is how many attempts Engine.StreamShard makes per shard
	// across replicas before giving up with ErrShardUnavailable (default 3).
	MaxAttempts int
	// HedgeAfter controls hedged requests: > 0 fires a second attempt on
	// another replica after that fixed delay; 0 (default) adapts to the
	// primary node's observed p95 time to first line; < 0 disables hedging.
	HedgeAfter time.Duration
	// BackoffBase / BackoffMax shape the exponential backoff between retry
	// attempts (defaults 10ms and 500ms); each sleep is jittered ±50%.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold consecutive request failures trip a node's circuit
	// breaker open (default 3); BreakerCooloff is how long it fails fast
	// before admitting a half-open probe (default 5s).
	BreakerThreshold int
	BreakerCooloff   time.Duration
	// Transport carries every request the pool makes (nil: Go's default
	// transport); wrapping it is how faults are injected per node.
	Transport http.RoundTripper
}

// healthFails consecutive ping failures mark a node down.
const healthFails = 2

func (c PoolConfig) withDefaults() PoolConfig {
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 2 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 10 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 500 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooloff <= 0 {
		c.BreakerCooloff = 5 * time.Second
	}
	return c
}

// Counters is the pool's lifetime fault-tolerance accounting, exported so
// the serving layer can surface it in /v1/metrics.
type Counters struct {
	// Attempts counts every shard-eval attempt (first tries, retries, and
	// hedges alike); Retries counts attempts after the first for a shard;
	// HedgesFired counts hedge attempts launched and HedgeWins the ones
	// that returned before their primary.
	Attempts    atomic.Int64
	Retries     atomic.Int64
	HedgesFired atomic.Int64
	HedgeWins   atomic.Int64
	// NodeUnhealthy counts up→down health transitions; BreakerOpen counts
	// breaker trips (closed→open and failed half-open probes).
	NodeUnhealthy atomic.Int64
	BreakerOpen   atomic.Int64
	// CorruptPartials counts lines rejected by checksum verification.
	CorruptPartials atomic.Int64
}

// Pool owns the per-node state and HTTP transport shared by every remote
// Engine on a coordinator: one health view, one breaker, and one latency
// profile per worker, however many corpora it serves. Safe for concurrent
// use.
type Pool struct {
	cfg    PoolConfig
	client *http.Client

	mu    sync.Mutex
	nodes map[string]*nodeState
	rng   *rand.Rand // backoff jitter; guarded by mu

	counters Counters
}

// NewPool builds a pool with the given tuning. Its HTTP client has no
// timeout of its own: attempts are bounded by per-attempt deadlines. The
// backoff jitter has a fixed seed; jitter decorrelates retries, it is not
// security.
func NewPool(cfg PoolConfig) *Pool {
	return &Pool{
		cfg:    cfg.withDefaults(),
		client: &http.Client{Transport: cfg.Transport},
		nodes:  map[string]*nodeState{},
		rng:    rand.New(rand.NewSource(1)),
	}
}

// Counters exposes the pool's fault-tolerance counters.
func (p *Pool) Counters() *Counters { return &p.counters }

// Node returns (creating on first use) the shared state for a worker base
// URL.
func (p *Pool) Node(addr string) *nodeState {
	p.mu.Lock()
	defer p.mu.Unlock()
	n, ok := p.nodes[addr]
	if !ok {
		n = newNodeState(addr)
		p.nodes[addr] = n
	}
	return n
}

// backoffFor returns the jittered sleep before retry attempt `try`
// (try >= 1): exponential in the attempt number, capped, ±50% jitter.
func (p *Pool) backoffFor(try int) time.Duration {
	d := p.cfg.BackoffBase << (try - 1)
	if d > p.cfg.BackoffMax || d <= 0 {
		d = p.cfg.BackoffMax
	}
	p.mu.Lock()
	jitter := 0.5 + p.rng.Float64()
	p.mu.Unlock()
	return time.Duration(float64(d) * jitter)
}

// hedgeDelay resolves the hedge threshold for an attempt against n: the
// configured fixed delay, or n's observed p95 when adapting. ok is false
// when hedging is disabled or there is not enough latency signal yet.
func (p *Pool) hedgeDelay(n *nodeState) (time.Duration, bool) {
	switch {
	case p.cfg.HedgeAfter > 0:
		return p.cfg.HedgeAfter, true
	case p.cfg.HedgeAfter < 0:
		return 0, false
	}
	if p95 := n.latencyP95(); p95 > 0 {
		return p95, true
	}
	return 0, false
}

// emitError wraps a failure of the coordinator-side batch consumer during a
// chunked attempt: the consumer is gone (disconnect, downstream error), so
// the attempt must not be retried and the node's breaker is not charged.
type emitError struct{ err error }

func (e *emitError) Error() string { return e.err.Error() }
func (e *emitError) Unwrap() error { return e.err }

// EvalShardChunked runs one chunked shard-eval attempt against node n,
// streaming CRC-verified tuple batches to emit as they arrive instead
// of buffering the shard's result. The attempt timeout applies per line —
// an idle deadline re-armed on every received line and suspended while a
// batch is handed downstream — so a large result is bounded by network
// liveness, not by total size or by how fast the consumer drains. On
// success the terminal done line is returned; sent reports how many tuples
// reached emit either way (the resume point for a retry with
// ShardEvalRequest.Skip). An error from emit itself comes back wrapped as a
// consumer error (emitError), which the retry ladder must treat as
// terminal. The latency a success feeds the adaptive hedge threshold is the
// time to the first line: that is the window a hedge races in (the first
// batch claims the stream), and unlike the whole stream's duration it
// excludes time spent blocked in emit on downstream pacing.
func (p *Pool) EvalShardChunked(ctx context.Context, n *nodeState, req *ShardEvalRequest, emit func(koko.Batch) error) (done *ChunkDone, sent int, err error) {
	p.counters.Attempts.Add(1)
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	idle := time.AfterFunc(p.cfg.AttemptTimeout, cancel)
	defer idle.Stop()
	t0 := time.Now()
	var firstLine time.Time
	done, sent, err = p.chunkAttempt(actx, n.addr, req, idle, &firstLine, emit)
	if err != nil {
		var ee *emitError
		if errors.As(err, &ee) {
			return nil, sent, err // consumer failure, not the node's
		}
		if ctx.Err() != nil {
			// The caller's context ended the attempt (consumer broke out of
			// the stream, a hedge lost its claim, the query deadline hit) —
			// a pacing artifact on our side, not evidence against the node,
			// so the breaker is not charged.
			return nil, sent, err
		}
		if n.onFailure(p.cfg.BreakerThreshold, p.cfg.BreakerCooloff, time.Now()) {
			p.counters.BreakerOpen.Add(1)
		}
		return nil, sent, err
	}
	n.onSuccess(firstLine.Sub(t0))
	return done, sent, nil
}

// chunkAttempt is the raw chunked transport: the POST and the NDJSON line
// loop (readLine, ParseChunkLine, which verifies each batch's CRC before it
// is released downstream). A batch reaches emit as the worker's bytes,
// counted but not decoded. A line the framing rejects fails the attempt
// like a broken stream. firstLine is set when the first line arrives.
func (p *Pool) chunkAttempt(ctx context.Context, addr string, req *ShardEvalRequest, idle *time.Timer, firstLine *time.Time, emit func(koko.Batch) error) (*ChunkDone, int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, fmt.Errorf("remote: encode shard-eval request: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+EvalPath, bytes.NewReader(body))
	if err != nil {
		return nil, 0, fmt.Errorf("remote: node %s: %w", addr, err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("Accept", "application/x-ndjson")
	hresp, err := p.client.Do(hreq)
	if err != nil {
		return nil, 0, fmt.Errorf("remote: node %s: %w", addr, err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 1024))
		return nil, 0, fmt.Errorf("remote: node %s: shard-eval status %d: %s", addr, hresp.StatusCode, bytes.TrimSpace(msg))
	}
	br := bufio.NewReaderSize(hresp.Body, 32<<10)
	var raw []byte
	var line ChunkLine
	sent := 0
	for {
		raw, err = readLine(br, raw)
		if err != nil {
			return nil, sent, fmt.Errorf("remote: node %s: chunked stream broke after %d tuples: %w", addr, sent, err)
		}
		if err := ParseChunkLine(raw, &line); err != nil {
			if errors.Is(err, ErrCorruptPartial) {
				p.counters.CorruptPartials.Add(1)
			}
			return nil, sent, fmt.Errorf("remote: node %s: after %d tuples: %w", addr, sent, err)
		}
		if firstLine.IsZero() {
			*firstLine = time.Now()
		}
		idle.Reset(p.cfg.AttemptTimeout)
		switch {
		case line.Error != "":
			return nil, sent, fmt.Errorf("remote: node %s: worker error mid-stream: %s", addr, line.Error)
		case line.Done != nil:
			d := line.Done
			var cand, matched int
			if d.Summary != nil {
				cand, matched = d.Summary.Candidates, d.Summary.Matched
			}
			if got := CountersChecksum(cand, matched, d.Tuples); got != d.Checksum {
				p.counters.CorruptPartials.Add(1)
				return nil, sent, fmt.Errorf("remote: node %s: chunked done checksum mismatch (got %x, stamped %x): %w", addr, got, d.Checksum, ErrCorruptPartial)
			}
			if d.Tuples != sent {
				return nil, sent, fmt.Errorf("remote: node %s: chunked stream delivered %d tuples, done line claims %d: %w", addr, sent, d.Tuples, ErrCorruptPartial)
			}
			if req.Generation != 0 && d.Generation != req.Generation {
				return nil, sent, fmt.Errorf("remote: node %s: generation moved (pinned %d, serving %d)", addr, req.Generation, d.Generation)
			}
			return d, sent, nil
		case line.Tuples.Len() > 0:
			// Suspend the idle deadline for the handoff: emit blocks on
			// downstream backpressure (the ordered merge admits shards in
			// turn, an NDJSON client may pause), and consumer pacing must
			// not be mistaken for a dead node — the deadline bounds network
			// idleness only.
			idle.Stop()
			emitErr := emit(line.Tuples)
			idle.Reset(p.cfg.AttemptTimeout)
			if emitErr != nil {
				return nil, sent, &emitError{emitErr}
			}
			sent += line.Tuples.Len()
		}
	}
}

// ping hits a node's health endpoint with a bounded deadline.
func (p *Pool) ping(ctx context.Context, addr string) error {
	pctx, cancel := context.WithTimeout(ctx, p.cfg.AttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, addr+"/v1/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	return nil
}

// CheckHealth runs one active health round over every known node,
// flipping up/down state by consecutive-failure count.
func (p *Pool) CheckHealth(ctx context.Context) {
	p.mu.Lock()
	nodes := make([]*nodeState, 0, len(p.nodes))
	for _, n := range p.nodes {
		nodes = append(nodes, n)
	}
	p.mu.Unlock()
	var wg sync.WaitGroup
	for _, n := range nodes {
		wg.Add(1)
		go func(n *nodeState) {
			defer wg.Done()
			err := p.ping(ctx, n.addr)
			if n.pingResult(err == nil) {
				p.counters.NodeUnhealthy.Add(1)
			}
		}(n)
	}
	wg.Wait()
}

// HealthLoop pings every node each interval until ctx is done — the
// coordinator's background health checker.
func (p *Pool) HealthLoop(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			p.CheckHealth(ctx)
		}
	}
}
