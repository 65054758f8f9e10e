package remote

import (
	"sort"
	"sync"
	"time"
)

// breakerState is the circuit breaker's phase for one node.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// latencyWindow is how many recent successful-attempt latencies (time to
// the first response line) a node retains for the adaptive hedge threshold.
const latencyWindow = 64

// nodeState is everything the pool tracks about one worker: health from
// active pings, a circuit breaker fed by request outcomes, and a ring of
// recent latencies for the hedge threshold. One nodeState is shared by all
// engines using the pool, so a node that a cafes query found dead is
// immediately second choice for a tweets query too.
type nodeState struct {
	addr string // base URL, e.g. http://10.0.0.2:7333

	mu sync.Mutex
	// up is the health-check verdict: flipped down after cfg.HealthFails
	// consecutive ping failures, back up on the first success. A down node
	// is skipped in first-choice selection but still reachable as a last
	// resort (health checks lag reality; a query beats a guess).
	up        bool
	pingFails int
	// Breaker: consecutive request failures trip it open; after Cooloff it
	// admits a single half-open probe whose outcome closes or re-opens it.
	breaker     breakerState
	consecFails int
	openedUntil time.Time
	probing     bool
	// lat is a ring of recent successful-attempt latencies.
	lat    [latencyWindow]time.Duration
	latLen int
	latPos int
}

func newNodeState(addr string) *nodeState {
	return &nodeState{addr: addr, up: true}
}

// Addr returns the node's base URL.
func (n *nodeState) Addr() string { return n.addr }

// Up reports the health-check verdict.
func (n *nodeState) Up() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.up
}

// pingResult folds one active health-check outcome into the up/down state,
// returning true when the node just transitioned to down (the caller
// counts transitions, not pings).
func (n *nodeState) pingResult(ok bool, failThreshold int) (wentDown bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ok {
		n.up = true
		n.pingFails = 0
		return false
	}
	n.pingFails++
	if n.up && n.pingFails >= failThreshold {
		n.up = false
		return true
	}
	return false
}

// tryAcquire asks the breaker whether an attempt may proceed now. In the
// open state it fails fast until the cooloff expires, then admits exactly
// one half-open probe (the claim is the side effect — callers must follow
// a true return with a real attempt).
func (n *nodeState) tryAcquire(now time.Time) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch n.breaker {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Before(n.openedUntil) {
			return false
		}
		n.breaker = breakerHalfOpen
		n.probing = true
		return true
	default: // half-open: one probe in flight, everyone else sheds
		if n.probing {
			return false
		}
		n.probing = true
		return true
	}
}

// onSuccess folds a successful attempt into the breaker (closes it) and
// the latency ring.
func (n *nodeState) onSuccess(d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.breaker = breakerClosed
	n.consecFails = 0
	n.probing = false
	n.up = true
	n.pingFails = 0
	n.lat[n.latPos] = d
	n.latPos = (n.latPos + 1) % latencyWindow
	if n.latLen < latencyWindow {
		n.latLen++
	}
}

// onFailure folds a failed attempt into the breaker, returning true when
// this failure tripped it open (closed→open or a failed half-open probe).
func (n *nodeState) onFailure(threshold int, cooloff time.Duration, now time.Time) (opened bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.consecFails++
	switch n.breaker {
	case breakerHalfOpen:
		// The probe failed: straight back to open for another cooloff.
		n.breaker = breakerOpen
		n.openedUntil = now.Add(cooloff)
		n.probing = false
		return true
	case breakerClosed:
		if threshold > 0 && n.consecFails >= threshold {
			n.breaker = breakerOpen
			n.openedUntil = now.Add(cooloff)
			return true
		}
	}
	return false
}

// latencyP95 returns the node's observed p95 attempt latency, or 0 when
// fewer than 8 samples exist (not enough signal to hedge on).
func (n *nodeState) latencyP95() time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.latLen < 8 {
		return 0
	}
	samples := make([]time.Duration, n.latLen)
	copy(samples, n.lat[:n.latLen])
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[(len(samples)*95)/100]
}
