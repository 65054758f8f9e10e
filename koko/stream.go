package koko

import (
	"context"
	"fmt"
	"iter"
	"sync"
	"time"
)

// Streaming results: TupleSeq is the canonical form every Querier's Run
// returns. Tuples flow lazily from the per-document evaluation loop through
// the shard fan-out to the consumer; buffered results, the server's result
// cache, and job results are thin collectors over the same sequence.

// streamBatchTuples bounds how many tuples a shard accumulates before
// flushing a batch downstream. Small enough that the first batch of a large
// result arrives long before evaluation completes; large enough that
// per-batch overhead (channel hops, job result appends, NDJSON flushes)
// amortizes.
const streamBatchTuples = 256

// streamFirstBatchTuples is the first flush's threshold: a shard's opening
// batch goes out after a handful of tuples, so time-to-first-tuple tracks
// the first candidate documents rather than a full batch fill. Subsequent
// batches use streamBatchTuples to amortize per-batch overhead.
const streamFirstBatchTuples = 16

// shardStreamBuffer is how many batches a shard may complete ahead of its
// in-order delivery turn before its producer blocks. Together with
// streamBatchTuples it bounds the fan-out's buffered tuples at
// shards × shardStreamBuffer × streamBatchTuples regardless of result size.
const shardStreamBuffer = 2

// ShardEnd reports one completed shard within a stream. It follows the
// shard's tuples, so a consumer that has seen ShardEnd for shard i holds
// the exact prefix a shard-at-a-time merge would have produced.
type ShardEnd struct {
	// Shard is the shard index, in the Querier's shard numbering.
	Shard int
	// Tuples counts the tuples this shard contributed to the stream.
	Tuples int
	// Summary carries the shard's counters, phase times, and plan report —
	// everything about the shard's result except the tuples, which were
	// already yielded. Nil when Failed.
	Summary *Result
	// Failed marks a shard skipped in degraded mode (see
	// QueryOptions.Degraded); the stream continues with the next shard.
	Failed bool
	// Err is the failed shard's error (set only with Failed).
	Err error
}

// Event is one element of a TupleSeq: exactly one field is set.
type Event struct {
	// Tuple is one output row, already in the Querier's global document and
	// sentence coordinates. The pointer is valid only for the duration of
	// the yield; consumers that retain it must copy.
	Tuple *Tuple
	// Shard marks a shard boundary.
	Shard *ShardEnd
}

// TupleSeq is a single-use lazy stream of query results: tuples in global
// document order interleaved with per-shard completion markers. Memory is
// bounded by the stream's internal batching, not the result size, and the
// first tuple is available before evaluation of later documents and shards
// has finished.
//
// Iterate with Events (or All for tuples only), then check Err. Breaking
// out of the iteration cancels the remaining evaluation; all fan-out
// goroutines have exited by the time the loop returns. Collect drains the
// stream into a buffered Result — the materialized mode as a collector over
// the iterator.
type TupleSeq struct {
	shards  int
	produce func(yield func(Event) bool) error
	started bool
	err     error
	failed  []int
	failErr error
	summary Result
}

// NumShards reports how many shards the stream covers.
func (s *TupleSeq) NumShards() int { return s.shards }

// Events yields the stream. It may be consumed once; evaluation runs as the
// consumer pulls (a paused consumer applies backpressure to evaluation).
func (s *TupleSeq) Events() iter.Seq[Event] {
	return func(yield func(Event) bool) {
		if s.started {
			panic("koko: TupleSeq consumed twice")
		}
		s.started = true
		s.err = s.produce(func(ev Event) bool {
			if sh := ev.Shard; sh != nil {
				if sh.Failed {
					s.failed = append(s.failed, sh.Shard)
					if s.failErr == nil && sh.Err != nil {
						s.failErr = sh.Err
					}
				} else if sh.Summary != nil {
					mergeResultInto(&s.summary, sh.Summary)
				}
			}
			return yield(ev)
		})
	}
}

// All yields only the tuples, copied out of the stream's batches.
func (s *TupleSeq) All() iter.Seq[Tuple] {
	return func(yield func(Tuple) bool) {
		for ev := range s.Events() {
			if ev.Tuple != nil && !yield(*ev.Tuple) {
				return
			}
		}
	}
}

// Err reports why the stream stopped: nil after a complete drain (or a
// consumer break), the first shard's error otherwise. Valid once iteration
// has returned.
func (s *TupleSeq) Err() error { return s.err }

// FailedShards lists the shards skipped in degraded mode, in shard order.
// Valid once iteration has returned; empty for non-degraded runs.
func (s *TupleSeq) FailedShards() []int { return s.failed }

// FailedErr returns the first failed shard's error in a degraded run (nil
// when no shard failed). Valid once iteration has returned.
func (s *TupleSeq) FailedErr() error { return s.failErr }

// Summary returns the merged counters of every completed shard — the
// buffered Result minus its tuples. Valid once iteration has returned.
func (s *TupleSeq) Summary() *Result {
	out := s.summary
	return &out
}

// Collect drains the stream into a materialized Result, byte-identical to
// the historical buffered mode: tuples concatenated in shard order, counters
// and plan reports merged exactly as MergeResults would, Elapsed set to the
// fan-out's wall time. In a degraded stream a shard may fail after some of
// its tuples were already yielded; Collect keeps only tuples confirmed by a
// completed shard's ShardEnd, so the result holds surviving shards only and
// FailedShards never names a shard whose tuples are in the result.
func (s *TupleSeq) Collect() (*Result, error) {
	t0 := time.Now()
	var tuples []Tuple
	mark := 0 // length of tuples at the last completed shard boundary
	for ev := range s.Events() {
		switch {
		case ev.Tuple != nil:
			tuples = append(tuples, *ev.Tuple)
		case ev.Shard != nil && ev.Shard.Failed:
			tuples = tuples[:mark] // drop the failed shard's partial prefix
		case ev.Shard != nil:
			mark = len(tuples)
		}
	}
	if s.err != nil {
		return nil, s.err
	}
	out := s.summary
	out.Tuples = tuples
	out.Elapsed = time.Since(t0)
	return &out, nil
}

// ShardStreamFunc evaluates one shard of a query for StreamShards: it
// delivers tuples through emit in bounded batches (document order, already
// rebased to the Querier's global coordinates) and returns the shard's
// counters-only summary. An emit error means the consumer is gone; the
// implementation stops evaluating and returns it.
type ShardStreamFunc func(ctx context.Context, shard int, emit func(tuples []Tuple) error) (*Result, error)

// StreamShards composes per-shard streams into one TupleSeq. Shards start
// in shard order, at most parallel at once; each delivers bounded batches
// into a small per-shard buffer and blocks when it runs ahead. The consumer
// drains shard 0's stream, then shard 1's, and so on — shards cover
// disjoint ascending document ranges, so this in-order concatenation is the
// K-way ordered merge (the heap over per-shard heads degenerates to shard
// order) and tuples arrive in global document order.
//
// A shard error cancels the rest of the fan-out and surfaces through
// TupleSeq.Err — unless degraded is set, in which case the shard yields a
// Failed ShardEnd and the stream continues.
func StreamShards(ctx context.Context, shards, parallel int, run ShardStreamFunc, degraded bool) *TupleSeq {
	return StreamShardsEager(ctx, shards, parallel, nil, run, degraded)
}

// StreamShardsEager is StreamShards with some shards admitted outside the
// sliding window: every index in eager has its start gate closed up front,
// so it begins evaluating immediately — concurrently with the windowed
// shards and without occupying a window slot — while its delivery turn
// still comes in shard order (its output parks in the shard's bounded
// buffer until the merge reaches it). Built for small out-of-band shards
// like a Mutable snapshot's sealed delta, which would otherwise evaluate
// only after every base shard drained.
func StreamShardsEager(ctx context.Context, shards, parallel int, eager []int, run ShardStreamFunc, degraded bool) *TupleSeq {
	seq := &TupleSeq{shards: shards}
	seq.produce = func(yield func(Event) bool) error {
		base := ctx
		if base == nil {
			base = context.Background()
		}
		cctx, cancel := context.WithCancel(base)
		type msg struct {
			tuples []Tuple
			sum    *Result
			last   bool
			err    error
		}
		chans := make([]chan msg, shards)
		for i := range chans {
			chans[i] = make(chan msg, shardStreamBuffer)
		}
		par := parallel
		if par < 1 {
			par = 1
		}
		// starts gates shard launches to a sliding window in shard order:
		// starts[i] is closed when shard i may begin evaluating, initially
		// shards 0..par-1, advancing one shard each time the consumer drains
		// one. A bare semaphore would deadlock here — a later shard could
		// claim the last slot, fill its bounded buffer, and block on a
		// consumer that is waiting for an earlier shard which can never
		// start. An ordered fan-out must grant capacity in delivery order.
		// Eager shards are admitted up front, outside the window; admit is
		// idempotent (only ever called from this goroutine) so the window
		// sliding over an already-eager shard is a no-op.
		starts := make([]chan struct{}, shards)
		admitted := make([]bool, shards)
		for i := range starts {
			starts[i] = make(chan struct{})
		}
		admit := func(i int) {
			if !admitted[i] {
				admitted[i] = true
				close(starts[i])
			}
		}
		for i := 0; i < shards && i < par; i++ {
			admit(i)
		}
		for _, i := range eager {
			if i >= 0 && i < shards {
				admit(i)
			}
		}
		// record notes the first real failure; shards cancelled in its wake
		// resolve to it, so the stream reports the root cause even when a
		// lower-indexed shard was merely cancelled.
		var mu sync.Mutex
		var firstErr error
		record := func(err error) error {
			mu.Lock()
			defer mu.Unlock()
			if firstErr == nil {
				firstErr = err
			}
			return firstErr
		}
		var wg sync.WaitGroup
		for i := 0; i < shards; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				send := func(m msg) bool {
					select {
					case chans[i] <- m:
						return true
					case <-cctx.Done():
						return false
					}
				}
				select {
				case <-starts[i]:
				case <-cctx.Done():
					send(msg{last: true, err: cctx.Err()})
					return
				}
				if err := cctx.Err(); err != nil {
					send(msg{last: true, err: err})
					return
				}
				sum, err := run(cctx, i, func(ts []Tuple) error {
					if len(ts) == 0 {
						return nil
					}
					if !send(msg{tuples: ts}) {
						return cctx.Err()
					}
					return nil
				})
				if err != nil {
					if !degraded {
						record(fmt.Errorf("shard %d: %w", i, err))
						cancel() // fast-fail: stop shards whose result is moot
					}
					send(msg{last: true, err: err})
					return
				}
				send(msg{last: true, sum: sum})
			}(i)
		}
		defer func() {
			// Runs on clean completion, consumer break, and error alike:
			// no shard goroutine may outlive the iteration.
			cancel()
			wg.Wait()
		}()
		for i := 0; i < shards; i++ {
			shardTuples := 0
		shard:
			for {
				var m msg
				// Prefer delivered messages over the cancellation signal so
				// a result that completed just before a late cancel still
				// streams out whole.
				select {
				case m = <-chans[i]:
				default:
					select {
					case m = <-chans[i]:
					case <-cctx.Done():
						return record(cctx.Err())
					}
				}
				switch {
				case m.err != nil:
					// A cancelled parent context is terminal even in degraded
					// mode — degradation tolerates shard failures, not the
					// caller giving up.
					if !degraded || base.Err() != nil {
						return record(fmt.Errorf("shard %d: %w", i, m.err))
					}
					if !yield(Event{Shard: &ShardEnd{Shard: i, Failed: true, Err: fmt.Errorf("shard %d: %w", i, m.err)}}) {
						return nil
					}
					break shard
				case m.last:
					if !yield(Event{Shard: &ShardEnd{Shard: i, Tuples: shardTuples, Summary: m.sum}}) {
						return nil
					}
					break shard
				default:
					for k := range m.tuples {
						if !yield(Event{Tuple: &m.tuples[k]}) {
							return nil
						}
						shardTuples++
					}
				}
			}
			if next := i + par; next < shards {
				// Shard i has fully drained; admit the next shard so the
				// window slides forward one, staying par wide.
				admit(next)
			}
		}
		return nil
	}
	return seq
}

// mergeResultInto folds one shard's counters, phase times, and plan report
// into a merged result — the non-tuple half of MergeResults, shared with
// the streaming collectors so both modes merge identically.
func mergeResultInto(out *Result, res *Result) {
	out.Candidates += res.Candidates
	out.Matched += res.Matched
	out.Elapsed += res.Elapsed
	out.Phases.Normalize += res.Phases.Normalize
	out.Phases.DPLI += res.Phases.DPLI
	out.Phases.Plan += res.Phases.Plan
	out.Phases.LoadArticle += res.Phases.LoadArticle
	out.Phases.GSP += res.Phases.GSP
	out.Phases.Extract += res.Phases.Extract
	out.Phases.Satisfying += res.Phases.Satisfying
	mergePlanInfo(out, res.Plan)
}

// query is Query for every local Querier: parse, Run, and Collect.
func query(q Querier, src string, qo *QueryOptions) (*Result, error) {
	p, err := ParseQuery(src)
	if err != nil {
		return nil, err
	}
	seq, err := q.Run(context.Background(), p, qo)
	if err != nil {
		return nil, err
	}
	return seq.Collect()
}
