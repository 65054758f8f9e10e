package remote_test

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/koko/remote"
)

// FaultKind is one injected transport fault.
type FaultKind int

const (
	// FaultNone lets the attempt through untouched.
	FaultNone FaultKind = iota
	// FaultDrop black-holes the attempt: the caller blocks until its
	// per-attempt deadline fires (a dead TCP peer).
	FaultDrop
	// FaultDelay holds the attempt before sending (a slow worker).
	FaultDelay
	// FaultError fails the attempt immediately with a transport error
	// (connection reset).
	FaultError
	// FaultCorrupt delivers the response with one byte flipped, so the
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

// FaultPolicy is an http.RoundTripper for remote.PoolConfig.Transport that
// injects deterministic, seeded faults into shard-eval attempts per node;
// other requests (health pings) pass untouched. All methods are safe for
// concurrent use; the shared seeded source makes a single-goroutine
// decision sequence reproducible.
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

// RoundTrip applies the fault Decide draws for a shard-eval request's node
// and sends the request on through http.DefaultTransport.
func (f *FaultPolicy) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != remote.EvalPath {
		return http.DefaultTransport.RoundTrip(req)
	}
	ctx := req.Context()
	kind, delay := f.Decide(req.URL.Scheme + "://" + req.URL.Host)
	switch kind {
	case FaultDrop:
		req.Body.Close()
		<-ctx.Done()
		return nil, ctx.Err()
	case FaultError:
		req.Body.Close()
		return nil, errors.New("injected transport error")
	case FaultDelay:
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			req.Body.Close()
			return nil, ctx.Err()
		}
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || kind != FaultCorrupt {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	corruptBody(body)
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// corruptBody flips one bit of a shard-eval body in place: the first digit
// of the first tuple's sentence id, so the line still frames and only its
// CRC can tell; or, on an empty stream, the last digit of the done line's
// counters checksum.
func corruptBody(body []byte) {
	if i := bytes.Index(body, []byte(`{"tuples":[{"sentence_id":`)); i >= 0 {
		body[i+len(`{"tuples":[{"sentence_id":`)] ^= 1
		return
	}
	if i := bytes.LastIndex(body, []byte(`"checksum":`)); i >= 0 {
		j := i + len(`"checksum":`)
		for j+1 < len(body) && '0' <= body[j+1] && body[j+1] <= '9' {
			j++
		}
		body[j] ^= 1
	}
}
