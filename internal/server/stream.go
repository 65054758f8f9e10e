package server

import (
	"context"
	"net/http"
	"strings"
	"time"

	"repro/koko"
	"repro/koko/remote"
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
	Tuple *Tuple         `json:"tuple,omitempty"`
	Shard *ShardProgress `json:"shard,omitempty"`
	Done  *StreamSummary `json:"done,omitempty"`
	Error string         `json:"error,omitempty"`
}

// ShardProgress marks one shard's completion within a streamed response.
type ShardProgress struct {
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// Tuples is the number of tuples this shard contributed; TotalTuples
	// the cumulative count over this and every earlier shard.
	Tuples      int `json:"tuples"`
	TotalTuples int `json:"total_tuples"`
}

// StreamSummary is the terminal line of a streamed response — the buffered
// QueryResponse minus the tuple table that already went over the wire.
type StreamSummary struct {
	Corpus     string `json:"corpus"`
	Generation uint64 `json:"generation"`
	Tuples     int    `json:"tuples"`
	QueryStats
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
// applies backpressure all the way down to the block loop (memory
// stays bounded by the stream's internal batching, not the result size).
// It runs on the same path as Query, with answerDrain: a cache hit streams
// the cached batches; a miss that completes populates the cache. The
// worker-pool slot is held for the whole drain: with pull-driven evaluation
// there is no completed-result handoff point, and a slot that outlives its
// evaluation would unbound the pool. An emit error (client disconnect) or
// ctx cancellation stops the remaining evaluation; QueryStream does not
// return until it has exited. Each batch is decoded for its events.
// req.Partial is ignored.
func (s *Service) QueryStream(ctx context.Context, req QueryRequest, emit func(StreamEvent) error) error {
	return s.queryStream(ctx, req, func(b koko.Batch) error {
		ts, err := b.Tuples()
		if err != nil {
			return err
		}
		for i := range ts {
			if err := emit(StreamEvent{Tuple: (*Tuple)(&ts[i])}); err != nil {
				return consumerGone{err}
			}
		}
		return nil
	}, emit)
}

// queryStream is QueryStream delivering each batch whole to batch, which
// reports a failure to deliver it as a consumerGone, and every other event
// to emit.
func (s *Service) queryStream(ctx context.Context, req QueryRequest, batch func(koko.Batch) error, emit func(StreamEvent) error) error {
	t0 := time.Now()
	s.metrics.streamsTotal.Add(1)
	req.Partial = false
	a, err := s.run(ctx, req, scope{}, s.answerDrain(req.NoCache, batch, func(sh *koko.ShardEnd, shards, total int) error {
		if err := emit(StreamEvent{Shard: &ShardProgress{Shard: sh.Shard, Shards: shards, Tuples: sh.Tuples, TotalTuples: total}}); err != nil {
			return consumerGone{err}
		}
		return nil
	}))
	if err != nil {
		return err
	}
	sum := &StreamSummary{Corpus: req.Corpus, Generation: a.gen, Tuples: a.tuples, QueryStats: a.stats()}
	sum.ServiceMillis = ms(time.Since(t0))
	return emit(StreamEvent{Done: sum})
}

// handleQueryStream answers a query as NDJSON, each batch's tuple lines
// written at once: the batch's JSON array — a forwarded batch's bytes as
// the worker sent them — cut at its tuple keys, each tuple wrapped in its
// line. Errors before the first byte become ordinary HTTP error responses;
// errors after it are appended as a terminal {"error": ...} line (the
// status line is long gone).
func (s *Service) handleQueryStream(w http.ResponseWriter, r *http.Request, req QueryRequest) {
	flusher, _ := w.(http.Flusher)
	var buf, arr []byte
	started, pending := false, 0
	// send writes buf (tuples tuple lines, or one other line) and flushes
	// after every other line and once flushEvery tuple lines are pending:
	// that cadence, not shard completion, puts the first lines on the wire
	// while evaluation still runs.
	send := func(tuples int) error {
		if !started {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			started = true
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
		if pending += tuples; flusher != nil && (tuples == 0 || pending >= flushEvery) {
			flusher.Flush()
			pending = 0
		}
		return nil
	}
	line := func(ev StreamEvent) (err error) {
		if buf, err = remote.AppendJSON(buf[:0], ev); err != nil {
			return err
		}
		return send(0)
	}
	err := s.queryStream(r.Context(), req, func(b koko.Batch) (err error) {
		if arr, err = b.AppendJSON(arr[:0]); err == nil {
			buf = buf[:0]
			for t := range koko.TupleObjects(arr) {
				buf = append(append(append(buf, `{"tuple":`...), t...), "}\n"...)
			}
			err = send(b.Len())
		}
		if err != nil {
			return consumerGone{err} // a batch the encoder refuses or the client does not take
		}
		return nil
	}, line)
	switch {
	case err == nil:
	case !started:
		writeError(w, err)
	default:
		_ = line(StreamEvent{Error: err.Error()})
	}
}
