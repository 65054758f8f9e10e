package jobs

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/koko"
)

// Manager-level tests against a fake runtime: jobs must execute
// shard-at-a-time through the runtime's pool, report progress, survive a
// corpus swap (pinned engine), stop issuing shard evaluations when
// cancelled, enforce the active-job bound, and purge finished jobs after
// the retention TTL.

const jobQuery = `extract x:Entity from "blogs" if ()
	satisfying x (str(x) contains "Cafe" {1.0}) with threshold 0.5`

func jobCorpus(n int) *koko.Corpus {
	var names, texts []string
	for i := 0; i < n; i++ {
		names = append(names, fmt.Sprintf("doc%02d.txt", i))
		texts = append(texts, fmt.Sprintf("Cafe Number%d serves smooth espresso daily.", i))
	}
	return koko.NewCorpus(names, texts)
}

// fakeRuntime backs the manager with a real engine and an unbounded pool.
type fakeRuntime struct {
	eng      koko.Querier
	gen      uint64
	acquires atomic.Int64
}

func (f *fakeRuntime) Engine(name string) (koko.Querier, uint64, error) {
	if name != "c" {
		return nil, 0, errors.New("corpus not found")
	}
	return f.eng, f.gen, nil
}

// RunShard evaluates the shard directly; each call stands for the one pool
// slot the server's runtime claims per shard evaluation.
func (f *fakeRuntime) RunShard(ctx context.Context, eng koko.Querier, shard int, query string, explain bool, emit func([]koko.Tuple)) (*koko.Result, string, error) {
	if err := ctx.Err(); err != nil {
		return nil, "", err
	}
	f.acquires.Add(1)
	p, err := koko.ParseQuery(query)
	if err != nil {
		return nil, "", err
	}
	sum, err := eng.StreamShard(ctx, shard, p, &koko.QueryOptions{Explain: explain}, func(b koko.Batch) error {
		ts, err := b.Tuples()
		emit(ts)
		return err
	})
	return sum, "", err
}

// gatedQuerier wraps a Querier so StreamShard (the executor's per-shard
// evaluation call) blocks until released (or the context is cancelled),
// counting calls — the instrument for cancellation and limit tests.
type gatedQuerier struct {
	koko.Querier
	calls   atomic.Int32
	started chan struct{} // closed on first StreamShard
	release chan struct{} // close to let evaluations proceed
}

func newGated(q koko.Querier) *gatedQuerier {
	return &gatedQuerier{Querier: q, started: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedQuerier) StreamShard(ctx context.Context, shard int, p *koko.ParsedQuery, qo *koko.QueryOptions, emit func(koko.Batch) error) (*koko.Result, error) {
	if g.calls.Add(1) == 1 {
		close(g.started)
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-g.release:
	}
	return g.Querier.StreamShard(ctx, shard, p, qo, emit)
}

func waitState(t *testing.T, m *Manager, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		st, err := m.Get(id)
		if err != nil {
			t.Fatalf("get %s: %v", id, err)
		}
		if st.State == want {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, _ := m.Get(id)
	t.Fatalf("job %s never reached %s (now %s)", id, want, st.State)
	return Status{}
}

func TestJobRunsToCompletion(t *testing.T) {
	c := jobCorpus(6)
	eng := koko.NewShardedEngine(c, 3, nil)
	rt := &fakeRuntime{eng: eng, gen: 7}
	m := New(rt, Config{})

	st, err := m.Submit(Spec{Corpus: "c", Queries: []string{jobQuery, jobQuery}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Generation != 7 || st.Shards != 3 || st.ShardsTotal != 6 {
		t.Fatalf("submit status = %+v", st)
	}
	final := waitState(t, m, st.ID, StateDone)
	if final.ShardsDone != 6 {
		t.Fatalf("shards_done = %d, want 6", final.ShardsDone)
	}
	for _, pr := range final.Queries {
		if pr.ShardsDone != 3 || pr.Tuples != 6 {
			t.Fatalf("query progress = %+v, want 3 shards / 6 tuples", pr)
		}
	}
	// Each shard evaluation claimed exactly one pool slot.
	if got := rt.acquires.Load(); got != 6 {
		t.Fatalf("pool acquires = %d, want 6 (one per shard evaluation)", got)
	}

	// Results must equal the direct synchronous evaluation.
	want, err := eng.Query(jobQuery)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Results(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) != 2 {
		t.Fatalf("results queries = %d", len(res.Queries))
	}
	for _, q := range res.Queries {
		if !q.Complete {
			t.Fatalf("query %d not complete", q.Index)
		}
		if !reflect.DeepEqual(q.Result.Tuples, want.Tuples) {
			t.Fatalf("query %d tuples differ:\n got %v\nwant %v", q.Index, q.Result.Tuples, want.Tuples)
		}
	}

	snap := m.Metrics()
	if snap.Submitted != 1 || snap.Done != 1 || snap.Retained != 1 || snap.QueueShards != 0 {
		t.Fatalf("metrics = %+v", snap)
	}
}

func TestJobCancelStopsShardEvaluations(t *testing.T) {
	g := newGated(koko.NewShardedEngine(jobCorpus(6), 3, nil))
	m := New(&fakeRuntime{eng: g}, Config{})

	st, err := m.Submit(Spec{Corpus: "c", Queries: []string{jobQuery, jobQuery}})
	if err != nil {
		t.Fatal(err)
	}
	<-g.started // first shard evaluation is in flight (and blocked)

	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, m, st.ID, StateCancelled)
	if final.ShardsDone != 0 {
		t.Fatalf("shards_done = %d after immediate cancel", final.ShardsDone)
	}
	// The executor must not have issued any further shard evaluations: the
	// one in flight was cancelled mid-run (its ctx fired), none followed.
	if got := g.calls.Load(); got != 1 {
		t.Fatalf("shard evaluation started %d times after cancel, want 1", got)
	}
	// A cancelled job's results are still fetchable: the completed prefix.
	res, err := m.Results(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != StateCancelled || res.Queries[0].Complete {
		t.Fatalf("cancelled results = state %s complete=%t", res.State, res.Queries[0].Complete)
	}
	close(g.release)
}

func TestJobPartialResultsMidRun(t *testing.T) {
	g := newGated(koko.NewShardedEngine(jobCorpus(6), 3, nil))
	m := New(&fakeRuntime{eng: g}, Config{})
	st, err := m.Submit(Spec{Corpus: "c", Queries: []string{jobQuery}})
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	close(g.release) // let shards flow

	// The streamed prefix is fetchable before the job finishes and is always
	// internally consistent. A shard streams its tuples before its summary
	// lands and ShardsDone counts it, so mid-run the prefix holds every
	// completed shard's tuples plus at most the running shard's.
	deadline := time.Now().Add(15 * time.Second)
	for {
		res, err := m.Results(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		q := res.Queries[0]
		// 2 docs per shard, 2 tuples per doc-pair with this query.
		got, done := len(q.Result.Tuples), q.ShardsDone
		if q.Complete {
			if got != 2*q.ShardsTotal {
				t.Fatalf("complete query holds %d tuples, want %d", got, 2*q.ShardsTotal)
			}
			break
		}
		if hi := 2 * min(done+1, q.ShardsTotal); got < 2*done || got > hi {
			t.Fatalf("prefix inconsistency: %d tuples at %d shards done, want [%d, %d]", got, done, 2*done, hi)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never completed")
		}
	}
}

func TestJobLimitAndBadSpecs(t *testing.T) {
	g := newGated(koko.NewShardedEngine(jobCorpus(4), 2, nil))
	m := New(&fakeRuntime{eng: g}, Config{MaxActive: 2})

	if _, err := m.Submit(Spec{Queries: []string{jobQuery}}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("missing corpus err = %v", err)
	}
	if _, err := m.Submit(Spec{Corpus: "c"}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("empty queries err = %v", err)
	}
	if _, err := m.Submit(Spec{Corpus: "c", Queries: []string{"extract from if"}}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("unparsable query err = %v", err)
	}
	if _, err := m.Submit(Spec{Corpus: "nope", Queries: []string{jobQuery}}); err == nil {
		t.Fatal("unknown corpus accepted")
	}

	j1, err := m.Submit(Spec{Corpus: "c", Queries: []string{jobQuery}})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m.Submit(Spec{Corpus: "c", Queries: []string{jobQuery}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(Spec{Corpus: "c", Queries: []string{jobQuery}}); !errors.Is(err, ErrLimit) {
		t.Fatalf("over-limit submit err = %v, want ErrLimit", err)
	}
	close(g.release)
	waitState(t, m, j1.ID, StateDone)
	waitState(t, m, j2.ID, StateDone)
	// Slots freed: submitting works again.
	j3, err := m.Submit(Spec{Corpus: "c", Queries: []string{jobQuery}})
	if err != nil {
		t.Fatalf("post-drain submit: %v", err)
	}
	waitState(t, m, j3.ID, StateDone)
}

func TestJobSurvivesCorpusSwap(t *testing.T) {
	// The engine is pinned at submit: replacing the runtime's engine
	// mid-job (what a hot reload does) must not affect the running job.
	g := newGated(koko.NewShardedEngine(jobCorpus(6), 3, nil))
	rt := &fakeRuntime{eng: g, gen: 1}
	m := New(rt, Config{})
	st, err := m.Submit(Spec{Corpus: "c", Queries: []string{jobQuery}})
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	rt.eng = koko.NewEngine(jobCorpus(1), nil) // "reload" swaps the entry
	rt.gen = 2
	close(g.release)
	final := waitState(t, m, st.ID, StateDone)
	if final.Generation != 1 {
		t.Fatalf("job generation = %d, want pinned 1", final.Generation)
	}
	res, err := m.Results(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Queries[0].Result.Tuples); got != 6 {
		t.Fatalf("tuples = %d, want 6 from the pinned pre-swap corpus", got)
	}
}

func TestJobResultsTTL(t *testing.T) {
	eng := koko.NewEngine(jobCorpus(2), nil)
	m := New(&fakeRuntime{eng: eng}, Config{ResultsTTL: 30 * time.Millisecond})
	st, err := m.Submit(Spec{Corpus: "c", Queries: []string{jobQuery}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateDone)
	time.Sleep(60 * time.Millisecond)
	if _, err := m.Get(st.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired job Get err = %v, want ErrNotFound", err)
	}
	if snap := m.Metrics(); snap.Retained != 0 || snap.Done != 1 {
		t.Fatalf("post-purge metrics = %+v", snap)
	}
}

func TestJobRetainedTupleBudget(t *testing.T) {
	// Each job retains 4 tuples (4 docs, 1 tuple each). Budget 6: the
	// second finished job must evict the first, TTL notwithstanding.
	eng := koko.NewEngine(jobCorpus(4), nil)
	m := New(&fakeRuntime{eng: eng}, Config{ResultsTTL: -1, MaxRetainedTuples: 6})

	j1, err := m.Submit(Spec{Corpus: "c", Queries: []string{jobQuery}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j1.ID, StateDone)
	if snap := m.Metrics(); snap.RetainedTuples != 4 {
		t.Fatalf("retained tuples = %d, want 4", snap.RetainedTuples)
	}
	j2, err := m.Submit(Spec{Corpus: "c", Queries: []string{jobQuery}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j2.ID, StateDone)
	if _, err := m.Get(j1.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oldest job survived the retention budget: err = %v", err)
	}
	if _, err := m.Get(j2.ID); err != nil {
		t.Fatalf("newest job evicted: %v", err)
	}
	if snap := m.Metrics(); snap.RetainedTuples != 4 || snap.Retained != 1 {
		t.Fatalf("post-evict metrics = %+v", snap)
	}
	// Deleting the survivor returns the accounting to zero.
	if _, err := m.Cancel(j2.ID); err != nil {
		t.Fatal(err)
	}
	if snap := m.Metrics(); snap.RetainedTuples != 0 || snap.Retained != 0 {
		t.Fatalf("post-delete metrics = %+v", snap)
	}

	// A single job larger than the whole budget is never self-purged: its
	// results stay fetchable (the budget is soft by one job), and the next
	// finished job evicts it as oldest.
	over := New(&fakeRuntime{eng: eng}, Config{ResultsTTL: -1, MaxRetainedTuples: 2})
	big, err := over.Submit(Spec{Corpus: "c", Queries: []string{jobQuery}}) // retains 4 > 2
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, over, big.ID, StateDone)
	res, err := over.Results(big.ID)
	if err != nil {
		t.Fatalf("oversized job self-purged: %v", err)
	}
	if got := len(res.Queries[0].Result.Tuples); got != 4 {
		t.Fatalf("oversized job tuples = %d, want 4", got)
	}
	next, err := over.Submit(Spec{Corpus: "c", Queries: []string{jobQuery}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, over, next.ID, StateDone)
	if _, err := over.Get(big.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oversized job survived a newer finisher: err = %v", err)
	}
	if _, err := over.Get(next.ID); err != nil {
		t.Fatalf("newest job evicted: %v", err)
	}
}

func TestJobDeleteFinished(t *testing.T) {
	eng := koko.NewEngine(jobCorpus(2), nil)
	m := New(&fakeRuntime{eng: eng}, Config{ResultsTTL: -1})
	st, err := m.Submit(Spec{Corpus: "c", Queries: []string{jobQuery}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateDone)
	// Negative TTL retains until deleted.
	if got, err := m.Get(st.ID); err != nil || got.State != StateDone {
		t.Fatalf("retained job: %+v, %v", got, err)
	}
	last, err := m.Cancel(st.ID) // DELETE on a finished job removes it
	if err != nil || last.State != StateDone {
		t.Fatalf("delete finished = %+v, %v", last, err)
	}
	if _, err := m.Get(st.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted job Get err = %v, want ErrNotFound", err)
	}
	if _, err := m.Cancel(st.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete err = %v, want ErrNotFound", err)
	}
}

// TestDrain: a draining manager finishes the running job, rejects new
// submits with ErrDraining, and a drain whose budget expires cancels what
// is left instead of hanging.
func TestDrain(t *testing.T) {
	g := newGated(koko.NewShardedEngine(jobCorpus(6), 3, nil))
	m := New(&fakeRuntime{eng: g}, Config{})
	st, err := m.Submit(Spec{Corpus: "c", Queries: []string{jobQuery}})
	if err != nil {
		t.Fatal(err)
	}
	<-g.started

	done := make(chan error, 1)
	go func() { done <- m.Drain(context.Background()) }()
	// Draining rejects new work immediately, while the running job lives on.
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, err := m.Submit(Spec{Corpus: "c", Queries: []string{jobQuery}})
		if errors.Is(err, ErrDraining) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submit during drain: err = %v, want ErrDraining", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("drain returned (%v) while a job was still running", err)
	default:
	}

	close(g.release) // let the job finish; drain must then complete
	if err := <-done; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := waitState(t, m, st.ID, StateDone); got.State != StateDone {
		t.Fatalf("job state after drain = %s", got.State)
	}

	// A drain that times out cancels the stuck job rather than hanging.
	g2 := newGated(koko.NewShardedEngine(jobCorpus(6), 3, nil))
	m2 := New(&fakeRuntime{eng: g2}, Config{})
	st2, err := m2.Submit(Spec{Corpus: "c", Queries: []string{jobQuery}})
	if err != nil {
		t.Fatal(err)
	}
	<-g2.started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m2.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired drain err = %v, want DeadlineExceeded", err)
	}
	waitState(t, m2, st2.ID, StateCancelled)
}
