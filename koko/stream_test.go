package koko

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// The streaming differential suite: draining a TupleSeq event by event must
// reconstruct exactly the buffered Result — same tuples in the same order,
// same counters — for every corpus generator, shard count, and planner
// setting. Run under -race: all shards evaluate at once, so the fan-out's
// producer goroutines run against each other and the consumer's pull loop.

// drainEvents consumes a stream by hand, rebuilding a buffered Result from
// the raw events and checking the stream's structural invariants along the
// way: ShardEnd markers arrive in strictly ascending shard order, each
// shard's Tuples count matches the tuples yielded since the previous marker,
// and every tuple precedes its shard's marker.
func drainEvents(t *testing.T, seq *TupleSeq) *Result {
	t.Helper()
	var tuples []Tuple
	sinceMarker := 0
	lastShard := -1
	for ev := range seq.Events() {
		if ev.Batch.Len() > 0 {
			tuples = append(tuples, mustTuples(ev.Batch)...)
			sinceMarker += ev.Batch.Len()
			continue
		}
		sh := ev.Shard
		if sh == nil {
			t.Fatal("event with neither tuple nor shard marker")
		}
		if sh.Shard <= lastShard {
			t.Fatalf("shard markers out of order: %d after %d", sh.Shard, lastShard)
		}
		lastShard = sh.Shard
		if sh.Failed {
			t.Fatalf("shard %d failed: %v", sh.Shard, sh.Err)
		}
		if sh.Tuples != sinceMarker {
			t.Fatalf("shard %d marker claims %d tuples, %d were yielded", sh.Shard, sh.Tuples, sinceMarker)
		}
		sinceMarker = 0
	}
	if err := seq.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if sinceMarker != 0 {
		t.Fatalf("%d tuples after the last shard marker", sinceMarker)
	}
	res := seq.Summary()
	res.Tuples = tuples
	return res
}

// TestStreamDifferential: streamed drain vs buffered Collect vs the
// unsharded reference, over three generators, K ∈ {1,3}, planner on and off.
func TestStreamDifferential(t *testing.T) {
	for _, tc := range diffCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c := tc.corpus()
			ref := NewEngine(c, nil)
			engines := []struct {
				name string
				q    Querier
			}{
				{"k=1", NewEngine(c, nil)},
				{"k=3", concurrentSharded(c, 3)},
			}
			total := 0
			for _, eng := range engines {
				for qi, src := range tc.queries {
					p, err := ParseQuery(src)
					if err != nil {
						t.Fatalf("parse: %v", err)
					}
					for _, noPlan := range []bool{true, false} {
						qo := &QueryOptions{noPlan: noPlan}
						label := fmt.Sprintf("%s q=%d noPlan=%t", eng.name, qi, noPlan)
						want := mustRun(t, ref, src, qo)

						seq, err := eng.q.Run(context.Background(), p, qo)
						if err != nil {
							t.Fatalf("%s: Run: %v", label, err)
						}
						streamed := drainEvents(t, seq)
						sameResults(t, label+" streamed", want, streamed)

						seq2, err := eng.q.Run(context.Background(), p, qo)
						if err != nil {
							t.Fatalf("%s: Run: %v", label, err)
						}
						collected, err := seq2.Collect()
						if err != nil {
							t.Fatalf("%s: Collect: %v", label, err)
						}
						sameResults(t, label+" collected", want, collected)
						total += len(streamed.Tuples)
					}
				}
			}
			if total == 0 {
				t.Fatal("workload produces no tuples; differential test is vacuous")
			}
		})
	}
}

// syntheticShards returns a ShardStreamFunc yielding batches tuples per
// batch, batches batches per shard, each tuple carrying payload bytes of
// value data, in ascending global coordinates.
func syntheticShards(perBatch, batches, payload int) ShardStreamFunc {
	return func(ctx context.Context, shard int, emit func(Batch) error) (*Result, error) {
		base := shard * perBatch * batches
		for b := 0; b < batches; b++ {
			ts := make([]Tuple, perBatch)
			for i := range ts {
				id := base + b*perBatch + i
				ts[i] = Tuple{
					SentenceID: id,
					Document:   shard,
					Values:     []string{string(make([]byte, payload))},
				}
			}
			if err := emit(BatchOf(ts)); err != nil {
				return nil, err
			}
		}
		return &Result{Candidates: perBatch * batches, Matched: perBatch * batches}, nil
	}
}

// TestStreamBoundedMemory: draining a stream whose total tuple volume far
// exceeds the fan-out's run-ahead must not materialize the result. The
// producer side generates 64 MiB of tuple payload across 16 shards, each
// producing 4 × its run-ahead, so no shard's whole output fits in its
// channel; the consumer discards tuples as they arrive, and the live-heap
// growth over the drain must stay within twice the documented bound —
// parallel × shardRunAhead × batch bytes — not track the result size. Each
// sample follows a forced collection, so it measures what the stream
// retains; uncollected garbage would track GC pacing, which CPU contention
// from concurrently running tests can stretch past the bound.
func TestStreamBoundedMemory(t *testing.T) {
	const (
		shards   = 16
		parallel = 4
		perBatch = 16
		batches  = 4 * shardRunAhead
		payload  = 1024 // 1 KiB per tuple => 64 MiB total
	)
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	seq := StreamShards(context.Background(), shards, parallel, syntheticShards(perBatch, batches, payload), false)
	n := 0
	peak := uint64(0)
	var ms runtime.MemStats
	for ev := range seq.Events() {
		if ev.Batch.Len() > 0 {
			n += ev.Batch.Len()
			if n%(perBatch*batches) == 0 { // sample once per shard's volume
				runtime.GC()
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
			}
		}
	}
	if err := seq.Err(); err != nil {
		t.Fatal(err)
	}
	if want := shards * perBatch * batches; n != want {
		t.Fatalf("drained %d tuples, want %d", n, want)
	}
	total := uint64(shards * perBatch * batches * payload)
	growth := uint64(0)
	if peak > before.HeapAlloc {
		growth = peak - before.HeapAlloc
	}
	// Every admitted shard may park a full run-ahead: 4 MiB here, against a
	// 64 MiB result. Twice that leaves room for tuple headers and the batch
	// in hand while still failing hard if the stream ever buffers the result.
	bound := uint64(parallel * shardRunAhead * perBatch * payload)
	if limit := 2 * bound; growth > limit {
		t.Fatalf("heap grew %d bytes during drain (limit %d, run-ahead bound %d, result volume %d): stream is materializing", growth, limit, bound, total)
	}
}

// TestStreamLaterShardRunsAhead: a shard that is not yet at the head of the
// ordered merge must keep evaluating into its run-ahead rather than stall
// until the shards before it drain. Shard 0 emits nothing until shard 1 has
// emitted 40 full batches — under the run-ahead, far over what the merge
// has taken — so a fan-out that parks only a couple of batches per shard
// stalls shard 1 and shard 0 times out.
func TestStreamLaterShardRunsAhead(t *testing.T) {
	const batches = 40 // 10 240 tuples, under shardRunAhead batches
	ranAhead := make(chan struct{})
	run := func(ctx context.Context, shard int, emit func(Batch) error) (*Result, error) {
		if shard == 1 {
			for b := 0; b < batches; b++ {
				ts := make([]Tuple, streamBatchTuples)
				for i := range ts {
					id := 1 + b*streamBatchTuples + i
					ts[i] = Tuple{SentenceID: id, Document: id}
				}
				if err := emit(BatchOf(ts)); err != nil {
					return nil, err
				}
			}
			close(ranAhead)
			return &Result{}, nil
		}
		select {
		case <-ranAhead:
		case <-time.After(5 * time.Second):
			return nil, errors.New("shard 1 stalled ahead of its merge turn instead of running ahead")
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if err := emit(BatchOf([]Tuple{{SentenceID: 0, Document: 0}})); err != nil {
			return nil, err
		}
		return &Result{}, nil
	}
	res, err := StreamShards(context.Background(), 2, 2, run, false).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + batches*streamBatchTuples; len(res.Tuples) != want {
		t.Fatalf("collected %d tuples, want %d", len(res.Tuples), want)
	}
	for i, tu := range res.Tuples {
		if tu.SentenceID != i || tu.Document != i {
			t.Fatalf("tuple %d is %+v, want document order", i, tu)
		}
	}
}

// TestStreamFirstTupleLatency: the first tuple must reach the consumer while
// later shards have not finished — time-to-first-tuple tracks the first
// shard's first batch, not the whole evaluation. Shard 1 blocks on a gate
// the consumer only opens after it has the first tuple, so completion of
// this test is itself the proof.
func TestStreamFirstTupleLatency(t *testing.T) {
	gate := make(chan struct{})
	run := func(ctx context.Context, shard int, emit func(Batch) error) (*Result, error) {
		if shard == 1 {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if err := emit(BatchOf([]Tuple{{SentenceID: shard, Document: shard}})); err != nil {
			return nil, err
		}
		return &Result{Matched: 1}, nil
	}
	seq := StreamShards(context.Background(), 2, 2, run, false)
	got := 0
	deadline := time.After(10 * time.Second)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range seq.Events() {
			if ev.Batch.Len() > 0 {
				if got == 0 {
					close(gate) // first tuple arrived before shard 1 ran
				}
				got += ev.Batch.Len()
			}
		}
	}()
	select {
	case <-done:
	case <-deadline:
		t.Fatal("stream never completed: first tuple did not arrive before shard 1 finished")
	}
	if err := seq.Err(); err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("got %d tuples, want 2", got)
	}
}

// TestStreamOrderedAdmission: with parallel=1 the fan-out must start shards
// in shard order — a semaphore granted in arbitrary order could admit a
// later shard first, which then blocks on its bounded buffer while the
// consumer waits forever on shard 0 (the deadlock this test regresses).
// Every shard produces more batches than the per-shard buffer holds, so any
// out-of-order admission wedges the drain.
func TestStreamOrderedAdmission(t *testing.T) {
	const shards = 8
	var started atomic.Int32
	run := func(ctx context.Context, shard int, emit func(Batch) error) (*Result, error) {
		if prev := started.Add(1) - 1; int(prev) != shard {
			return nil, fmt.Errorf("shard %d admitted %d-th, want shard order", shard, prev)
		}
		for b := 0; b < shardRunAhead*4; b++ {
			if err := emit(BatchOf([]Tuple{{SentenceID: shard*100 + b, Document: shard}})); err != nil {
				return nil, err
			}
		}
		return &Result{}, nil
	}
	seq := StreamShards(context.Background(), shards, 1, run, false)
	n := 0
	for ev := range seq.Events() {
		n += ev.Batch.Len()
	}
	if err := seq.Err(); err != nil {
		t.Fatal(err)
	}
	if want := shards * shardRunAhead * 4; n != want {
		t.Fatalf("drained %d tuples, want %d", n, want)
	}
}

// TestStreamDegradedCollectDropsFailedShardPrefix: in degraded mode a shard
// can fail after some of its tuples were already yielded into the stream.
// Collect must keep surviving shards only — the failed shard's partial
// prefix is dropped — so FailedShards never names a shard whose tuples are
// in the collected result.
func TestStreamDegradedCollectDropsFailedShardPrefix(t *testing.T) {
	boom := errors.New("replica died mid-stream")
	run := func(ctx context.Context, shard int, emit func(Batch) error) (*Result, error) {
		if err := emit(BatchOf([]Tuple{{SentenceID: shard * 10, Document: shard}})); err != nil {
			return nil, err
		}
		if shard == 1 {
			return nil, boom // fails after a batch already escaped downstream
		}
		return &Result{Matched: 1}, nil
	}
	seq := StreamShards(context.Background(), 3, 3, run, true)
	res, err := seq.Collect()
	if err != nil {
		t.Fatalf("degraded Collect must survive a mid-stream shard failure: %v", err)
	}
	if failed := seq.FailedShards(); len(failed) != 1 || failed[0] != 1 {
		t.Fatalf("failed shards = %v, want [1]", failed)
	}
	if len(res.Tuples) != 2 {
		t.Fatalf("collected %d tuples, want 2 (failed shard's prefix dropped): %+v", len(res.Tuples), res.Tuples)
	}
	for _, tu := range res.Tuples {
		if tu.Document == 1 {
			t.Fatalf("result contains tuple %+v from failed shard 1", tu)
		}
	}
	if res.Matched != 2 {
		t.Errorf("merged Matched = %d, want 2 (surviving shards only)", res.Matched)
	}
}

// TestStreamEagerAdmission: an eager shard's start gate is closed up front,
// so it evaluates concurrently with the window even when parallel=1 and its
// delivery turn is last. Shard 0 blocks until shard 2 has started — with
// ordered-only admission that is a deadlock (guarded by the timeout), so
// completion proves the eager start; the drain must still deliver in shard
// order.
func TestStreamEagerAdmission(t *testing.T) {
	started := make(chan struct{})
	run := func(ctx context.Context, shard int, emit func(Batch) error) (*Result, error) {
		switch shard {
		case 0:
			select {
			case <-started:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		case 2:
			close(started)
		}
		if err := emit(BatchOf([]Tuple{{SentenceID: shard, Document: shard}})); err != nil {
			return nil, err
		}
		return &Result{}, nil
	}
	seq := StreamShardsEager(context.Background(), 3, 1, []int{2}, run, false)
	var order []int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range seq.Events() {
			for _, tu := range mustTuples(ev.Batch) {
				order = append(order, tu.Document)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stream never completed: eager shard 2 did not start before shard 0 drained")
	}
	if err := seq.Err(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("delivery order = %v, want [0 1 2] (eager start must not reorder delivery)", order)
	}
}

// TestStreamStalledLaterShardDoesNotStarveEarlier: a later shard that never
// returns must not prevent earlier shards' tuples from reaching the
// consumer, even when parallel < shards. The consumer cancels after
// receiving shard 0's data, and the stall must end with the context.
func TestStreamStalledLaterShardDoesNotStarveEarlier(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	run := func(ctx context.Context, shard int, emit func(Batch) error) (*Result, error) {
		if shard == 2 {
			<-ctx.Done() // stalled replica: only cancellation ends it
			return nil, ctx.Err()
		}
		if err := emit(BatchOf([]Tuple{{SentenceID: shard, Document: shard}})); err != nil {
			return nil, err
		}
		return &Result{}, nil
	}
	seq := StreamShards(ctx, 3, 2, run, false)
	sawShard1End := false
	for ev := range seq.Events() {
		if sh := ev.Shard; sh != nil && sh.Shard == 1 && !sh.Failed {
			sawShard1End = true
			break // consumer gives up on the stalled tail; break cancels it
		}
	}
	if !sawShard1End {
		t.Fatalf("never saw shard 1 complete while shard 2 stalled: %v", seq.Err())
	}
}

// mustTuples returns b's tuples; every batch in these tests is local, so
// it never fails to decode.
func mustTuples(b Batch) []Tuple {
	ts, err := b.Tuples()
	if err != nil {
		panic(err)
	}
	return ts
}
