package remote

import (
	"math/rand"
	"sync"
	"time"
)

// FaultKind is one injected transport fault.
type FaultKind int

const (
	// FaultNone lets the attempt through untouched.
	FaultNone FaultKind = iota
	// FaultDrop black-holes the attempt: no request is sent and the caller
	// blocks until its per-attempt deadline fires (a dead TCP peer).
	FaultDrop
	// FaultDelay sleeps the attempt before sending (a slow worker).
	FaultDelay
	// FaultError fails the attempt immediately with a transport error
	// (connection reset).
	FaultError
	// FaultCorrupt delivers the response with its payload mangled, so the
	// coordinator's checksum verification must catch it.
	FaultCorrupt
)

// NodeFaults is one node's fault mix: independent probabilities per
// attempt, evaluated in Down, Drop, Error, Corrupt, Delay order (the first
// that fires wins; Delay composes with none of the terminal faults).
type NodeFaults struct {
	// Down forces every attempt to FaultDrop regardless of probabilities —
	// the injected equivalent of kill -9.
	Down bool
	// DropProb / ErrorProb / CorruptProb fire their fault with the given
	// probability per attempt (0..1).
	DropProb    float64
	ErrorProb   float64
	CorruptProb float64
	// DelayProb delays the attempt by Delay with the given probability.
	DelayProb float64
	Delay     time.Duration
}

// FaultPolicy injects deterministic, seeded faults per node into the
// Pool's transport. Tests and chaos drills configure it; production pools
// leave it nil. All methods are safe for concurrent use; the shared seeded
// source makes a single-goroutine decision sequence reproducible.
type FaultPolicy struct {
	mu    sync.Mutex
	rng   *rand.Rand
	nodes map[string]NodeFaults
}

// NewFaultPolicy builds an empty policy with a seeded decision source.
func NewFaultPolicy(seed int64) *FaultPolicy {
	return &FaultPolicy{rng: rand.New(rand.NewSource(seed)), nodes: map[string]NodeFaults{}}
}

// Set installs (or replaces) one node's fault mix, keyed by the node's
// base URL as the Engine's placement names it.
func (f *FaultPolicy) Set(node string, nf NodeFaults) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.nodes[node] = nf
}

// Decide draws the fault for one attempt against node, with the delay to
// apply when the kind is FaultDelay.
func (f *FaultPolicy) Decide(node string) (FaultKind, time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	nf, ok := f.nodes[node]
	if !ok {
		return FaultNone, 0
	}
	if nf.Down {
		return FaultDrop, 0
	}
	// One draw per configured probability keeps the sequence deterministic
	// for a fixed seed and call order.
	if nf.DropProb > 0 && f.rng.Float64() < nf.DropProb {
		return FaultDrop, 0
	}
	if nf.ErrorProb > 0 && f.rng.Float64() < nf.ErrorProb {
		return FaultError, 0
	}
	if nf.CorruptProb > 0 && f.rng.Float64() < nf.CorruptProb {
		return FaultCorrupt, 0
	}
	if nf.DelayProb > 0 && f.rng.Float64() < nf.DelayProb {
		return FaultDelay, nf.Delay
	}
	return FaultNone, 0
}
