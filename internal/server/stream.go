package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"time"

	"repro/koko"
)

// Streaming query mode: POST /v1/query with Accept: application/x-ndjson
// (or ?stream=1) answers as newline-delimited JSON pulled straight off the
// engine's tuple iterator: lines go out as evaluation yields them, flushed
// on a fixed cadence rather than per shard. The shard merge is already
// ordered by document, so the tuples arrive in exactly the order (and
// encoding) of the buffered response, interleaved with per-shard progress
// markers and followed by a summary line.

// StreamEvent is one NDJSON line of a streamed query response. Exactly one
// field is set per line:
//
//	{"tuple": {...}}   one output tuple, same encoding as the buffered mode
//	{"shard": {...}}   a shard's doc range completed (progress marker)
//	{"done": {...}}    the query finished; summary counters and timings
//	{"error": "..."}   evaluation failed mid-stream (terminal)
type StreamEvent struct {
	Tuple *TupleResult   `json:"tuple,omitempty"`
	Shard *ShardProgress `json:"shard,omitempty"`
	Done  *StreamSummary `json:"done,omitempty"`
	Error string         `json:"error,omitempty"`
}

// ShardProgress marks one shard's completion within a streamed response.
type ShardProgress struct {
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// Tuples is this shard's flush size; TotalTuples the cumulative count.
	Tuples      int `json:"tuples"`
	TotalTuples int `json:"total_tuples"`
}

// StreamSummary is the terminal line of a streamed response — the buffered
// QueryResponse minus the tuple table that already went over the wire.
type StreamSummary struct {
	Corpus        string         `json:"corpus"`
	Generation    uint64         `json:"generation"`
	Tuples        int            `json:"tuples"`
	Candidates    int            `json:"candidates"`
	Matched       int            `json:"matched"`
	Cached        bool           `json:"cached"`
	Phases        PhaseMillis    `json:"phases"`
	Plan          *koko.PlanInfo `json:"plan,omitempty"`
	ServiceMillis float64        `json:"service_ms"`
}

// flushEvery is the NDJSON flush cadence in tuple lines: small enough that
// a slow query's early tuples reach the client promptly, large enough to
// amortize the flush syscall across a burst.
const flushEvery = 64

// wantsStream reports whether the request asked for NDJSON streaming.
func wantsStream(r *http.Request) bool {
	if r.URL.Query().Get("stream") == "1" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

// QueryStream evaluates req and delivers the response as a sequence of
// StreamEvents by pulling the engine's tuple iterator directly: each tuple
// is emitted as evaluation yields it, so the first line is on the wire
// before later documents and shards have evaluated, and a paused consumer
// applies backpressure all the way down to the per-document loop (memory
// stays bounded by the stream's internal batching, not the result size).
// It runs on the same path as Query, with the NDJSON drain: a cache hit
// streams the cached tuples; a miss that completes populates the cache.
// Tuples are held only while the cache could take them: with NoCache or the
// cache disabled none are, and once the result outgrows the cache's tuple
// budget the held ones are dropped. The worker-pool slot is held for the
// whole drain: with pull-driven evaluation there is no completed-result
// handoff point, and a slot that outlives its evaluation would unbound the
// pool. An emit error (client disconnect) or ctx cancellation stops the
// remaining evaluation; QueryStream does not return until it has exited.
// req.Partial is ignored.
func (s *Service) QueryStream(ctx context.Context, req QueryRequest, emit func(StreamEvent) error) error {
	t0 := time.Now()
	s.metrics.streamsTotal.Add(1)
	req.Partial = false
	send := func(ev StreamEvent) error {
		if err := emit(ev); err != nil {
			return consumerGone{err}
		}
		return nil
	}
	sendTuple := func(t koko.Tuple) error {
		tr := tupleResultOf(t)
		return send(StreamEvent{Tuple: &tr})
	}
	a, err := s.run(ctx, req, func(seq *koko.TupleSeq, hit *koko.Result) (*koko.Result, int, error) {
		if hit != nil {
			for _, t := range hit.Tuples {
				if err := sendTuple(t); err != nil {
					return nil, 0, err
				}
			}
			return hit, len(hit.Tuples), nil
		}
		tEval := time.Now()
		var collected []koko.Tuple
		keep := !req.NoCache && s.cache.admits(0)
		total := 0
		for ev := range seq.Events() {
			var err error
			if t := ev.Tuple; t != nil {
				total++
				if keep = keep && s.cache.admits(total); keep {
					collected = append(collected, *t)
				} else {
					collected = nil
				}
				err = sendTuple(*t)
			} else {
				err = send(StreamEvent{Shard: &ShardProgress{
					Shard: ev.Shard.Shard, Shards: seq.NumShards(),
					Tuples: ev.Shard.Tuples, TotalTuples: total,
				}})
			}
			if err != nil {
				return nil, 0, err // leaving the range cancels the remaining evaluation
			}
		}
		if err := seq.Err(); err != nil {
			return nil, 0, err
		}
		// Elapsed is the drain's wall time: with pull-driven evaluation
		// there is no separate evaluation clock (the consumer's pace IS the
		// evaluation pace), matching what Collect reports in buffered mode.
		res := seq.Summary()
		res.Tuples = collected
		res.Elapsed = time.Since(tEval)
		return res, total, nil
	})
	if err != nil {
		return err
	}
	return emit(StreamEvent{Done: &StreamSummary{
		Corpus:        req.Corpus,
		Generation:    a.gen,
		Tuples:        a.tuples,
		Candidates:    a.res.Candidates,
		Matched:       a.res.Matched,
		Cached:        a.cached,
		Phases:        phasesOf(a.res),
		Plan:          a.res.Plan,
		ServiceMillis: ms(time.Since(t0)),
	}})
}

// handleQueryStream answers a query as NDJSON. Errors before the first
// byte become ordinary HTTP error responses; errors after it are appended
// as a terminal {"error": ...} line (the status line is long gone).
func (s *Service) handleQueryStream(w http.ResponseWriter, r *http.Request, req QueryRequest) {
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	started := false
	pending := 0
	err := s.QueryStream(r.Context(), req, func(ev StreamEvent) error {
		if !started {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			started = true
		}
		if err := enc.Encode(ev); err != nil {
			return err
		}
		// Flush every flushEvery tuple lines and on shard/done boundaries:
		// tuples arrive one at a time from the pull-driven iterator, so the
		// cadence — not shard completion — is what puts the first lines on
		// the wire while evaluation is still running, without paying a
		// syscall per line.
		pending++
		if flusher != nil && (pending >= flushEvery || ev.Shard != nil || ev.Done != nil) {
			flusher.Flush()
			pending = 0
		}
		return nil
	})
	if err == nil {
		return
	}
	if !started {
		writeError(w, err)
		return
	}
	_ = enc.Encode(StreamEvent{Error: err.Error()})
	if flusher != nil {
		flusher.Flush()
	}
}
