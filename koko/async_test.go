package koko

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/corpus"
)

// The shard-at-a-time surface: StreamShard prefixes must concatenate into
// the exact Run result, Run's events must deliver shards in order, and
// cancellation must stop evaluation — mid-run, not at the next call.

func asyncTestEngine(t *testing.T, k int) (*Engine, *ParsedQuery) {
	t.Helper()
	c := WrapCorpus(corpus.GenHappyDB(120, 3))
	p, err := ParseQuery(`extract x:Str from "moments" if
		(/ROOT:{ a = //"ate", b = a/dobj, x = (b.subtree) } (b) eq (b))`)
	if err != nil {
		t.Fatal(err)
	}
	return NewShardedEngine(c, k, nil), p
}

// collectRun is Run + Collect, failing the test on error.
func collectRun(t *testing.T, q Querier, p *ParsedQuery, qo *QueryOptions) *Result {
	t.Helper()
	seq, err := q.Run(context.Background(), p, qo)
	if err != nil {
		t.Fatal(err)
	}
	res, err := seq.Collect()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// streamShardInto evaluates one shard through StreamShard and appends its
// tuples and counters to acc — the job executor's accumulation.
func streamShardInto(acc *Result, q Querier, shard int, p *ParsedQuery, qo *QueryOptions) error {
	sum, err := q.StreamShard(context.Background(), shard, p, qo, func(b Batch) error {
		acc.Tuples = append(acc.Tuples, mustTuples(b)...)
		return nil
	})
	if err != nil {
		return err
	}
	acc.Candidates += sum.Candidates
	acc.Matched += sum.Matched
	return nil
}

// TestStreamShardPrefixMerge: evaluating shard-at-a-time in shard order and
// concatenating the per-shard tuples reproduces the fan-out result
// exactly — the invariant the server's job progress/partial-fetch design
// rests on.
func TestStreamShardPrefixMerge(t *testing.T) {
	for _, k := range []int{1, 3} {
		eng, p := asyncTestEngine(t, k)
		want := collectRun(t, eng, p, nil)
		if len(want.Tuples) == 0 {
			t.Fatal("workload produced no tuples")
		}
		got := &Result{}
		for i := 0; i < eng.NumShards(); i++ {
			if err := streamShardInto(got, eng, i, p, nil); err != nil {
				t.Fatalf("shard %d: %v", i, err)
			}
			// Every completed prefix must concatenate cleanly (tuples in
			// global doc order, no duplicate attribution).
			for j := 1; j < len(got.Tuples); j++ {
				if got.Tuples[j].Document < got.Tuples[j-1].Document {
					t.Fatalf("k=%d prefix %d: tuples out of document order", k, i)
				}
			}
		}
		if !reflect.DeepEqual(got.Tuples, want.Tuples) {
			t.Fatalf("k=%d: shard-at-a-time merge differs from fan-out:\n got %v\nwant %v", k, got.Tuples, want.Tuples)
		}
		if got.Candidates != want.Candidates || got.Matched != want.Matched {
			t.Fatalf("k=%d: counts differ: %d/%d vs %d/%d", k, got.Candidates, got.Matched, want.Candidates, want.Matched)
		}
	}
}

// TestRunEventsOrderAndEquivalence: ShardEnd markers arrive in strict shard
// order and the tuples between them concatenate into the collected Run
// result, with all shards evaluating at once so -race exercises the
// concurrent fan-out.
func TestRunEventsOrderAndEquivalence(t *testing.T) {
	for _, k := range []int{1, 3} {
		eng, p := asyncTestEngine(t, k)
		eng.SetParallelism(k)
		qo := &QueryOptions{}
		want := collectRun(t, eng, p, qo)
		seq, err := eng.Run(context.Background(), p, qo)
		if err != nil {
			t.Fatal(err)
		}
		var tuples []Tuple
		next := 0
		for ev := range seq.Events() {
			if ev.Batch.Len() > 0 {
				tuples = append(tuples, mustTuples(ev.Batch)...)
				continue
			}
			if ev.Shard.Shard != next {
				t.Fatalf("k=%d: shard %d delivered out of order (want %d)", k, ev.Shard.Shard, next)
			}
			next++
		}
		if err := seq.Err(); err != nil {
			t.Fatal(err)
		}
		if next != eng.NumShards() {
			t.Fatalf("k=%d: delivered %d shards, want %d", k, next, eng.NumShards())
		}
		if !reflect.DeepEqual(tuples, want.Tuples) {
			t.Fatalf("k=%d: streamed tuples differ from the collected Run", k)
		}
	}
}

// TestRunConsumerBreakCancels: a consumer breaking out of Events (a
// disconnected streaming client) cancels the remaining shards: nothing is
// delivered after the break, later shards never start, and the stream ends
// without an error.
func TestRunConsumerBreakCancels(t *testing.T) {
	eng, p := asyncTestEngine(t, 3)
	started := make([]bool, eng.NumShards())
	run := func(ctx context.Context, shard int, emit func(Batch) error) (*Result, error) {
		started[shard] = true // shards start one at a time at parallel=1
		return eng.StreamShard(ctx, shard, p, nil, emit)
	}
	seq := StreamShards(context.Background(), eng.NumShards(), 1, run, false)
	ends := 0
	for ev := range seq.Events() {
		if ev.Shard != nil {
			ends++
			break
		}
	}
	if err := seq.Err(); err != nil {
		t.Fatalf("err = %v after a consumer break, want nil", err)
	}
	if ends != 1 {
		t.Fatalf("consumer saw %d shard ends, want 1", ends)
	}
	for i, ok := range started[1:] {
		if ok {
			t.Fatalf("shard %d started after the consumer broke out", i+1)
		}
	}
}

// TestCancelStopsEvaluation: a context cancelled before (and during) a run
// aborts it with ctx.Err instead of a result.
func TestCancelStopsEvaluation(t *testing.T) {
	eng, p := asyncTestEngine(t, 3)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, q := range []Querier{eng, oneShard(eng.shards[0])} {
		seq, err := q.Run(ctx, p, nil)
		if err == nil {
			_, err = seq.Collect()
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("pre-cancelled %T run err = %v, want context.Canceled", q, err)
		}
	}
	seq, err := eng.Run(ctx, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for ev := range seq.Events() {
		t.Fatalf("event %+v delivered under a cancelled context", ev)
	}
	if !errors.Is(seq.Err(), context.Canceled) {
		t.Fatalf("pre-cancelled stream err = %v, want context.Canceled", seq.Err())
	}

	// Cancel at the first shard boundary: later shards must not be
	// delivered and the drain must return promptly (bounded by one shard's
	// remaining work, not the whole corpus).
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	seq, err = eng.Run(ctx2, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	done := make(chan error, 1)
	go func() {
		for ev := range seq.Events() {
			if ev.Shard != nil {
				delivered++
				cancel2()
			}
		}
		done <- seq.Err()
	}()
	select {
	case err := <-done:
		if delivered < 1 {
			t.Fatalf("no shard delivered before cancellation (err=%v)", err)
		}
		// Either the remaining shards were cancelled (ctx error) or the
		// whole run had already finished — both leave no goroutines behind.
	case <-time.After(30 * time.Second):
		t.Fatal("stream did not end after cancellation")
	}
}
