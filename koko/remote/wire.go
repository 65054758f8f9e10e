// Package remote makes a shard set served by other kokod processes look
// like a local koko.Querier: an Engine fans StreamShard calls out over HTTP
// to worker nodes (POST /v1/internal/shard-eval), each answering with one
// chunked NDJSON stream — checksummed tuple batches as the shard evaluates,
// then a done line with the shard's counters — and merges the streams with
// the same ordered merge a local sharded engine uses, so a distributed run
// is byte-identical to a single-node one.
//
// The package is dominated by its fault-tolerance layer, because the hard
// part of distribution is not the RPC but surviving slow, dead, and
// flapping workers:
//
//   - per-node health state flipped by consecutive ping failures
//     (Pool.HealthLoop), so dead nodes stop being first choice;
//   - per-line idle deadlines with retry + exponential backoff + jitter
//     against the shard's replica placement, resuming after the tuples
//     already delivered (Engine.StreamShard, ShardEvalRequest.Skip);
//   - hedged requests: after a latency threshold (fixed, or adaptive from
//     the node's observed p95) a second attempt races on another replica
//     and the first to deliver a line claims the stream;
//   - a per-node circuit breaker (closed / open / half-open single probe)
//     that sheds load from flapping workers;
//   - opt-in graceful degradation (koko.QueryOptions.Degraded) streaming
//     the surviving shards' tuples plus the failed shard list instead of
//     failing the whole query;
//   - a deterministic, seeded fault-injection hook (FaultPolicy) threaded
//     through the transport so tests and chaos drills can drop, delay,
//     error, and corrupt per node without touching the network stack.
package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"repro/koko"
)

// EvalPath is the worker-side shard evaluation endpoint an Engine posts to
// (relative to a node's base URL).
const EvalPath = "/v1/internal/shard-eval"

// ShardEvalRequest asks a worker to evaluate one shard of a named corpus.
// The worker answers with NDJSON ChunkLines: bounded tuple batches as they
// are evaluated, then a terminal done line, so a giant shard result never
// materializes on the worker.
type ShardEvalRequest struct {
	Corpus string `json:"corpus"`
	Shard  int    `json:"shard"`
	// Query is the canonical query text (the coordinator parses once for
	// cache keying, the worker re-parses; canonicalization keeps the two in
	// agreement).
	Query   string `json:"query"`
	Explain bool   `json:"explain,omitempty"`
	Workers int    `json:"workers,omitempty"`
	// Plan overrides the worker's planner setting ("on", "off", or ""
	// to inherit), mirroring koko.QueryOptions.Plan.
	Plan string `json:"plan,omitempty"`
	// Generation, when non-zero, pins the snapshot generation the
	// coordinator discovered: a worker whose corpus has moved on answers
	// 409 rather than silently evaluating different data.
	Generation uint64 `json:"generation,omitempty"`
	// Skip omits the first Skip tuples of the shard's stream — the
	// retry-resume protocol: evaluation is deterministic and generation
	// pinning fixes the data, so a replica re-evaluating the shard produces
	// the identical tuple sequence and the coordinator can resume exactly
	// after the prefix it already delivered downstream.
	Skip int `json:"skip,omitempty"`
}

// ChunkLine is one NDJSON line of a chunked shard-eval response. Exactly
// one field is set: a tuple batch (with its own checksum, verified before
// the batch is released downstream), the terminal done line, or a terminal
// error rendered after the 200 status line was already committed.
type ChunkLine struct {
	Tuples []koko.Tuple `json:"tuples,omitempty"`
	// Checksum is TuplesChecksum(Tuples): per-batch corruption detection, so
	// a corrupt batch fails the attempt before any of its tuples escape to
	// the coordinator's merge.
	Checksum uint64     `json:"checksum,omitempty"`
	Done     *ChunkDone `json:"done,omitempty"`
	Error    string     `json:"error,omitempty"`
}

// ChunkDone is the terminal line of a chunked shard-eval response.
type ChunkDone struct {
	// Summary is the shard's counters-only result (no tuples — they already
	// streamed), in the same form StreamShard returns.
	Summary *koko.Result `json:"summary"`
	// Tuples counts the tuples sent in this response (after Skip).
	Tuples     int    `json:"tuples"`
	Generation uint64 `json:"generation"`
	// Checksum is CountersChecksum over the summary counters and Tuples —
	// the end-of-stream cross-check pairing the per-batch checksums.
	Checksum uint64 `json:"checksum"`
}

// TuplesChecksum hashes the merge-relevant content of one chunk's tuple
// batch — ids, values, scores, evidence — in order, with FNV-1a. Workers
// stamp it on every ChunkLine; the coordinator verifies before releasing the
// batch downstream.
func TuplesChecksum(ts []koko.Tuple) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	writeInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeFloat := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	for _, t := range ts {
		writeInt(int64(t.SentenceID))
		writeInt(int64(t.Document))
		writeInt(int64(len(t.Values)))
		for _, v := range t.Values {
			h.Write([]byte(v))
			h.Write([]byte{0})
		}
		if len(t.Scores) > 0 {
			keys := make([]string, 0, len(t.Scores))
			for k := range t.Scores {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				h.Write([]byte(k))
				h.Write([]byte{0})
				writeFloat(t.Scores[k])
			}
		}
		writeInt(int64(len(t.Evidence)))
		for _, ev := range t.Evidence {
			h.Write([]byte(ev.Variable))
			h.Write([]byte{0})
			h.Write([]byte(ev.Condition))
			h.Write([]byte{0})
			writeFloat(ev.Weight)
			writeFloat(ev.Confidence)
			writeFloat(ev.Contribution)
		}
	}
	return h.Sum64()
}

// CountersChecksum hashes a chunked response's end-of-stream accounting:
// the candidate/match counters and the number of tuples sent.
func CountersChecksum(candidates, matched, tuples int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range []int{candidates, matched, tuples} {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// ErrShardUnavailable marks a shard whose every replica (across all retry
// attempts) failed. Callers match it with errors.Is; the concrete error is
// a *ShardUnavailableError carrying the last per-attempt failure.
var ErrShardUnavailable = errors.New("shard unavailable")

// ErrCorruptPartial marks a chunk line whose recomputed checksum disagreed
// with the one the worker stamped — the attempt-level failure
// that corruption detection turns into a retry.
var ErrCorruptPartial = errors.New("corrupt shard partial")

// ShardUnavailableError is the typed terminal failure of
// Engine.StreamShard: every replica of the shard failed on every attempt.
type ShardUnavailableError struct {
	Corpus   string
	Shard    int
	Attempts int
	// Last is the final attempt's error (the proximate cause).
	Last error
}

func (e *ShardUnavailableError) Error() string {
	return fmt.Sprintf("corpus %q shard %d unavailable after %d attempts: %v",
		e.Corpus, e.Shard, e.Attempts, e.Last)
}

// Is makes errors.Is(err, ErrShardUnavailable) match.
func (e *ShardUnavailableError) Is(target error) bool { return target == ErrShardUnavailable }

// Unwrap exposes the last attempt's error for errors.Is/As chains.
func (e *ShardUnavailableError) Unwrap() error { return e.Last }
