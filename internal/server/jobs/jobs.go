// Package jobs runs query batches asynchronously over the koko serving
// stack: a job is submitted with POST /v1/jobs, executed shard-at-a-time on
// the server's bounded worker pool, and observed through a handle — status
// with per-query/per-shard progress, a merged prefix of the tuples streamed
// so far fetchable before the job finishes, and context-based cancellation
// that stops in-flight shard evaluations.
//
// The design leans on the sharded execution layer (PR 3): a query over a
// K-shard corpus is K independent StreamShard evaluations in shard order,
// each streaming tuple batches already in global document order, so the
// tuples delivered so far always concatenate into a document-ordered prefix
// (koko.MergeResults) and progress reporting needs no separate accounting
// scheme. Because each shard evaluation
// claims one slot of the same pool interactive queries use — and releases
// it between shards — a long batch job interleaves with interactive
// traffic instead of starving it.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/koko"
)

// Sentinel errors; the HTTP layer maps them to status codes.
var (
	// ErrNotFound marks an unknown (or already purged) job id (404).
	ErrNotFound = errors.New("job not found")
	// ErrLimit marks a submit beyond the active-job bound (429).
	ErrLimit = errors.New("too many active jobs")
	// ErrBadSpec marks an invalid job specification (400).
	ErrBadSpec = errors.New("bad job spec")
	// ErrDraining marks a submit during shutdown (503): the server is
	// finishing running jobs and will not start new ones.
	ErrDraining = errors.New("server draining")
)

// Runtime is what the job executor needs from the serving layer: corpus
// resolution and the shared bounded worker pool. The server's Service
// implements it; tests substitute fakes.
type Runtime interface {
	// Engine resolves a corpus name to its engine and current generation.
	Engine(name string) (koko.Querier, uint64, error)
	// Acquire claims one worker-pool slot, honoring ctx while waiting;
	// Release returns it. Jobs hold a slot only for the duration of one
	// shard evaluation, never across shards.
	Acquire(ctx context.Context) error
	Release()
	// ShardWorkers clamps a requested per-shard worker count to the
	// runtime's budget for a single-shard evaluation.
	ShardWorkers(requested int) int
}

// Config sizes a Manager.
type Config struct {
	// MaxActive bounds how many jobs may be pending or running at once;
	// submits beyond it fail with ErrLimit. 0 means the default (16).
	MaxActive int
	// ResultsTTL is how long a finished job (done, failed, or cancelled)
	// remains fetchable before being purged lazily. 0 means the default
	// (15 minutes); negative retains finished jobs until deleted.
	ResultsTTL time.Duration
	// MaxRetainedTuples bounds the total tuples held across finished jobs'
	// retained results (the counterpart of the result cache's tuple
	// budget): when a job finishes over budget, the oldest-finished jobs
	// are purged early, TTL notwithstanding. 0 means the default (200000);
	// negative disables the bound.
	MaxRetainedTuples int
}

// State is a job's lifecycle phase.
type State string

const (
	StatePending   State = "pending"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Spec is a submitted job: a batch of queries against one corpus.
type Spec struct {
	Corpus  string   `json:"corpus"`
	Queries []string `json:"queries"`
	// Explain attaches per-condition evidence to every tuple.
	Explain bool `json:"explain,omitempty"`
	// Workers overrides the per-shard worker count (0 = runtime default).
	Workers int `json:"workers,omitempty"`
	// Plan selects the query planner ("on", "off", "" = runtime default),
	// mirroring the interactive query surface.
	Plan string `json:"plan,omitempty"`
}

// QueryProgress is one query's execution progress within a job.
type QueryProgress struct {
	Index       int    `json:"index"`
	Canonical   string `json:"canonical"`
	ShardsTotal int    `json:"shards_total"`
	ShardsDone  int    `json:"shards_done"`
	Tuples      int    `json:"tuples"`
	Candidates  int    `json:"candidates"`
	Matched     int    `json:"matched"`
}

// Status is a point-in-time snapshot of a job.
type Status struct {
	ID         string          `json:"id"`
	State      State           `json:"state"`
	Corpus     string          `json:"corpus"`
	Generation uint64          `json:"generation"`
	Shards     int             `json:"shards"`
	Queries    []QueryProgress `json:"queries"`
	// ShardsTotal / ShardsDone aggregate progress across all queries: a job
	// is len(Queries) × Shards shard evaluations.
	ShardsTotal int       `json:"shards_total"`
	ShardsDone  int       `json:"shards_done"`
	Error       string    `json:"error,omitempty"`
	CreatedAt   time.Time `json:"created_at"`
	StartedAt   time.Time `json:"started_at"`
	FinishedAt  time.Time `json:"finished_at"`
}

// QueryResults is one query's merged result prefix.
type QueryResults struct {
	Index       int
	Canonical   string
	Complete    bool
	ShardsTotal int
	ShardsDone  int
	// Result is the merge of every tuple batch streamed so far (completed
	// shards plus the running shard's delivered batches), in global document
	// order, and the counters of the completed shards — for a finished
	// query, exactly the synchronous query result.
	Result *koko.Result
}

// Results is the partial-or-complete outcome of a job. The rendering to
// JSON lives in the HTTP layer so job results and interactive query
// responses share one tuple encoding.
type Results struct {
	ID         string
	State      State
	Corpus     string
	Generation uint64
	Error      string
	Queries    []QueryResults
}

// Snapshot is the metrics view of a Manager.
type Snapshot struct {
	Submitted int64 `json:"submitted"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
	Pending   int   `json:"pending"`
	Running   int   `json:"running"`
	// QueueShards is the queue depth in the scheduler's own unit: shard
	// evaluations not yet completed across all active jobs.
	QueueShards int `json:"queue_shards"`
	// Retained counts finished jobs still held for result fetches;
	// RetainedTuples is their total tuple footprint (what
	// Config.MaxRetainedTuples bounds).
	Retained       int `json:"retained"`
	RetainedTuples int `json:"retained_tuples"`
}

// job is the manager-internal record. mu guards the mutable fields; results
// are appended in stream order per query (tuple batches, then each shard's
// counters-only summary), so the locked prefix is always mergeable.
type job struct {
	mu       sync.Mutex
	id       string
	spec     Spec
	state    State
	err      string
	eng      koko.Querier
	gen      uint64
	shards   int
	parsed   []*koko.ParsedQuery
	progress []QueryProgress
	results  [][]*koko.Result
	cancel   context.CancelFunc
	ctx      context.Context
	created  time.Time
	started  time.Time
	finished time.Time
	expires  time.Time // zero = never purge
	// tuples is the job's total retained tuple count, fixed at finalize —
	// the unit the manager's retention budget is accounted in.
	tuples int
	// accounted marks that tuples has been added to the manager's retained
	// total; deletion paths subtract only then. Guarded by Manager.mu, not
	// job.mu — it belongs to the manager's accounting, not the job's state.
	accounted bool
}

// Manager tracks and executes jobs. All methods are safe for concurrent
// use.
type Manager struct {
	rt        Runtime
	maxActive int
	ttl       time.Duration
	maxTuples int

	mu        sync.Mutex
	seq       uint64
	jobs      map[string]*job
	retained  int // total tuples across finished jobs' retained results
	submitted int64
	done      int64
	failed    int64
	cancelled int64
	// draining rejects new submits while Drain waits for active jobs to
	// finish (the graceful-shutdown path).
	draining bool
}

// New builds a Manager executing on rt.
func New(rt Runtime, cfg Config) *Manager {
	maxActive := cfg.MaxActive
	if maxActive <= 0 {
		maxActive = 16
	}
	ttl := cfg.ResultsTTL
	if ttl == 0 {
		ttl = 15 * time.Minute
	}
	maxTuples := cfg.MaxRetainedTuples
	if maxTuples == 0 {
		maxTuples = 200000
	}
	return &Manager{rt: rt, maxActive: maxActive, ttl: ttl, maxTuples: maxTuples, jobs: map[string]*job{}}
}

// Submit validates spec, registers the job, and starts executing it in the
// background. The engine (and its generation) is pinned at submit time, so
// a hot reload of the corpus never tears down a running job — it keeps
// evaluating the generation it started on while new queries see the new
// one.
func (m *Manager) Submit(spec Spec) (Status, error) {
	if spec.Corpus == "" || len(spec.Queries) == 0 {
		return Status{}, fmt.Errorf(`%w: "corpus" and a non-empty "queries" list are required`, ErrBadSpec)
	}
	parsed := make([]*koko.ParsedQuery, len(spec.Queries))
	for i, q := range spec.Queries {
		p, err := koko.ParseQuery(q)
		if err != nil {
			return Status{}, fmt.Errorf("%w: query %d: %v", ErrBadSpec, i, err)
		}
		parsed[i] = p
	}
	eng, gen, err := m.rt.Engine(spec.Corpus)
	if err != nil {
		return Status{}, err
	}

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return Status{}, fmt.Errorf("%w: not accepting new jobs", ErrDraining)
	}
	m.sweepLocked(time.Now())
	active := 0
	for _, j := range m.jobs {
		if !j.snapshotState().Terminal() {
			active++
		}
	}
	if active >= m.maxActive {
		m.mu.Unlock()
		return Status{}, fmt.Errorf("%w: %d active, limit %d", ErrLimit, active, m.maxActive)
	}
	m.seq++
	m.submitted++
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:      fmt.Sprintf("job-%d", m.seq),
		spec:    spec,
		state:   StatePending,
		eng:     eng,
		gen:     gen,
		shards:  eng.NumShards(),
		parsed:  parsed,
		results: make([][]*koko.Result, len(parsed)),
		cancel:  cancel,
		ctx:     ctx,
		created: time.Now().UTC(),
	}
	j.progress = make([]QueryProgress, len(parsed))
	for i, p := range parsed {
		j.progress[i] = QueryProgress{Index: i, Canonical: p.Canonical(), ShardsTotal: j.shards}
	}
	m.jobs[j.id] = j
	m.mu.Unlock()

	go m.run(j)
	return j.status(), nil
}

// run executes the job: for each query, each shard in order, claiming one
// pool slot per shard evaluation so interactive traffic interleaves.
func (m *Manager) run(j *job) {
	defer m.finalize(j)
	j.mu.Lock()
	if j.state == StateCancelled {
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now().UTC()
	j.mu.Unlock()

	qo := &koko.QueryOptions{Explain: j.spec.Explain, Workers: m.rt.ShardWorkers(j.spec.Workers), Plan: j.spec.Plan}
	for qi := range j.parsed {
		for si := 0; si < j.shards; si++ {
			if j.ctx.Err() != nil {
				return
			}
			if err := m.rt.Acquire(j.ctx); err != nil {
				return // cancelled while queued for a slot
			}
			// Stream the shard: every delivered batch becomes a tuples-only
			// result (tuples arrive already in global coordinates), so the
			// fetchable result prefix and the tuple progress counter grow
			// while the shard is still evaluating — a giant shard's result is
			// visible long before its summary, and before ShardsDone counts
			// it. The counters land once, in the tuple-less summary, so the
			// merged result of a finished query is exactly the buffered one.
			sum, err := j.eng.StreamShard(j.ctx, si, j.parsed[qi], qo, func(ts []koko.Tuple) error {
				j.mu.Lock()
				j.results[qi] = append(j.results[qi], &koko.Result{Tuples: ts})
				j.progress[qi].Tuples += len(ts)
				j.mu.Unlock()
				return nil
			})
			m.rt.Release()
			if err != nil {
				if j.ctx.Err() != nil {
					return // cancellation surfaced as the shard's error
				}
				j.mu.Lock()
				j.err = fmt.Sprintf("query %d shard %d: %v", qi, si, err)
				j.mu.Unlock()
				return
			}
			j.mu.Lock()
			if sum != nil {
				j.results[qi] = append(j.results[qi], sum)
			}
			pr := &j.progress[qi]
			pr.ShardsDone++
			if sum != nil {
				pr.Candidates += sum.Candidates
				pr.Matched += sum.Matched
			}
			j.mu.Unlock()
		}
	}
}

// finalize settles the job's terminal state and starts its retention clock.
func (m *Manager) finalize(j *job) {
	j.mu.Lock()
	switch {
	case j.state == StateCancelled || j.ctx.Err() != nil:
		j.state = StateCancelled
	case j.err != "":
		j.state = StateFailed
	default:
		j.state = StateDone
	}
	j.finished = time.Now().UTC()
	if m.ttl > 0 {
		j.expires = j.finished.Add(m.ttl)
	}
	// Drop the pinned engine and parsed queries: status/results reads only
	// need progress and results, and holding the engine would keep a whole
	// superseded generation (indices + corpus) alive for the retention
	// window after a hot reload.
	j.eng = nil
	j.parsed = nil
	for _, pr := range j.progress {
		j.tuples += pr.Tuples
	}
	state := j.state
	j.mu.Unlock()
	j.cancel() // release the context's resources

	m.mu.Lock()
	switch state {
	case StateDone:
		m.done++
	case StateFailed:
		m.failed++
	case StateCancelled:
		m.cancelled++
	}
	// A concurrent DELETE may have removed the record between the state
	// flip above and here; only a job still in the map joins the retention
	// accounting.
	if _, ok := m.jobs[j.id]; ok {
		j.accounted = true
		m.retained += j.tuples
		m.evictRetainedLocked(j.id)
	}
	m.mu.Unlock()
}

// evictRetainedLocked purges oldest-finished jobs until the total retained
// tuple count fits the budget — the jobs-side counterpart of the result
// cache's tuple bound, so sustained batch submission cannot pin unbounded
// result tables for the TTL window. The job that just finished (keep) is
// never evicted, whatever its size: results must be fetchable at least
// until a newer job finishes, so the budget is soft by one job rather than
// a silent discard of work the server already paid for. Caller holds m.mu.
func (m *Manager) evictRetainedLocked(keep string) {
	if m.maxTuples <= 0 || m.retained <= m.maxTuples {
		return
	}
	type done struct {
		id       string
		finished time.Time
		tuples   int
	}
	var finished []done
	for id, j := range m.jobs {
		if !j.accounted || id == keep {
			continue
		}
		j.mu.Lock()
		finished = append(finished, done{id: id, finished: j.finished, tuples: j.tuples})
		j.mu.Unlock()
	}
	sort.Slice(finished, func(i, k int) bool { return finished[i].finished.Before(finished[k].finished) })
	for _, d := range finished {
		if m.retained <= m.maxTuples {
			return
		}
		delete(m.jobs, d.id)
		m.retained -= d.tuples
	}
}

// Get returns a job's status snapshot.
func (m *Manager) Get(id string) (Status, error) {
	j, err := m.lookup(id)
	if err != nil {
		return Status{}, err
	}
	return j.status(), nil
}

// Results returns the job's merged result prefix: for every query, every
// tuple streamed so far in document order — the completed shards plus the
// batches the running shard has already delivered — with the completed
// shards' counters. For a done job this is exactly the batch's final
// answer; for a running or cancelled one it is the document-order prefix
// available so far.
func (m *Manager) Results(id string) (Results, error) {
	j, err := m.lookup(id)
	if err != nil {
		return Results{}, err
	}
	// Snapshot under the lock is O(batches) — slice-of-pointer copies and
	// progress counters. The O(tuples) merge happens outside j.mu so a
	// client polling results on a large running job never stalls the
	// executor's progress appends. Stored results are immutable once
	// appended, so the copied prefix stays consistent.
	j.mu.Lock()
	out := Results{ID: j.id, State: j.state, Corpus: j.spec.Corpus, Generation: j.gen, Error: j.err}
	progress := append([]QueryProgress(nil), j.progress...)
	results := make([][]*koko.Result, len(j.results))
	for qi := range j.results {
		results[qi] = append([]*koko.Result(nil), j.results[qi]...)
	}
	j.mu.Unlock()
	for qi := range results {
		pr := progress[qi]
		out.Queries = append(out.Queries, QueryResults{
			Index:       qi,
			Canonical:   pr.Canonical,
			Complete:    pr.ShardsDone == pr.ShardsTotal,
			ShardsTotal: pr.ShardsTotal,
			ShardsDone:  pr.ShardsDone,
			Result:      koko.MergeResults(results[qi]),
		})
	}
	return out, nil
}

// Cancel stops an active job (its context is cancelled, which aborts the
// in-flight shard evaluation between documents) or deletes a finished one.
// It returns the job's resulting status; deleted jobs report their terminal
// state one last time.
func (m *Manager) Cancel(id string) (Status, error) {
	j, err := m.lookup(id)
	if err != nil {
		return Status{}, err
	}
	j.mu.Lock()
	if j.state.Terminal() {
		st := j.statusLocked()
		j.mu.Unlock()
		m.mu.Lock()
		if _, ok := m.jobs[id]; ok {
			delete(m.jobs, id)
			if j.accounted {
				// Re-read tuples now: accounted was set under m.mu after
				// finalize fixed j.tuples, so a snapshot taken before this
				// block could predate it and corrupt the retained total.
				j.mu.Lock()
				m.retained -= j.tuples
				j.mu.Unlock()
			}
		}
		m.mu.Unlock()
		return st, nil
	}
	j.state = StateCancelled
	j.mu.Unlock()
	j.cancel()
	return j.status(), nil
}

// List returns all retained jobs' statuses, newest first.
func (m *Manager) List() []Status {
	m.mu.Lock()
	m.sweepLocked(time.Now())
	js := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		js = append(js, j)
	}
	m.mu.Unlock()
	out := make([]Status, 0, len(js))
	for _, j := range js {
		out = append(out, j.status())
	}
	sort.Slice(out, func(i, k int) bool { return out[i].CreatedAt.After(out[k].CreatedAt) })
	return out
}

// Metrics returns the manager's counter-and-gauge snapshot.
func (m *Manager) Metrics() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked(time.Now())
	snap := Snapshot{
		Submitted:      m.submitted,
		Done:           m.done,
		Failed:         m.failed,
		Cancelled:      m.cancelled,
		RetainedTuples: m.retained,
	}
	// Tally job states under the same m.mu section as the counters above
	// (m.mu → j.mu is the uniform order) so the snapshot's halves cannot
	// disagree — e.g. a job counted Retained whose tuples a concurrent
	// finalize had not yet added to RetainedTuples.
	for _, j := range m.jobs {
		st := j.status()
		switch st.State {
		case StatePending:
			snap.Pending++
		case StateRunning:
			snap.Running++
		default:
			snap.Retained++
		}
		if !st.State.Terminal() {
			snap.QueueShards += st.ShardsTotal - st.ShardsDone
		}
	}
	return snap
}

// Drain stops accepting new jobs and waits for every active one to finish,
// polling until done or ctx expires. Part of graceful shutdown: running
// batches complete (their results remain fetchable until the process
// exits), new submissions fail with ErrDraining. When ctx expires first,
// still-active jobs are cancelled so their shard evaluations stop promptly,
// and ctx.Err() is returned.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
	tick := time.NewTicker(25 * time.Millisecond)
	defer tick.Stop()
	for {
		if m.activeCount() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			m.mu.Lock()
			js := make([]*job, 0, len(m.jobs))
			for _, j := range m.jobs {
				js = append(js, j)
			}
			m.mu.Unlock()
			for _, j := range js {
				if !j.snapshotState().Terminal() {
					j.cancel()
				}
			}
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// activeCount reports how many jobs are pending or running.
func (m *Manager) activeCount() int {
	m.mu.Lock()
	js := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		js = append(js, j)
	}
	m.mu.Unlock()
	active := 0
	for _, j := range js {
		if !j.snapshotState().Terminal() {
			active++
		}
	}
	return active
}

// lookup resolves an id, sweeping expired jobs first so a purged job is
// indistinguishable from one that never existed.
func (m *Manager) lookup(id string) (*job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked(time.Now())
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("job %q: %w", id, ErrNotFound)
	}
	return j, nil
}

// sweepLocked drops finished jobs past their retention deadline. Caller
// holds m.mu.
func (m *Manager) sweepLocked(now time.Time) {
	for id, j := range m.jobs {
		j.mu.Lock()
		expired := j.state.Terminal() && !j.expires.IsZero() && now.After(j.expires)
		tuples := j.tuples
		j.mu.Unlock()
		if expired {
			delete(m.jobs, id)
			if j.accounted {
				m.retained -= tuples
			}
		}
	}
}

func (j *job) snapshotState() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

func (j *job) statusLocked() Status {
	st := Status{
		ID:         j.id,
		State:      j.state,
		Corpus:     j.spec.Corpus,
		Generation: j.gen,
		Shards:     j.shards,
		Queries:    append([]QueryProgress(nil), j.progress...),
		Error:      j.err,
		CreatedAt:  j.created,
		StartedAt:  j.started,
		FinishedAt: j.finished,
	}
	for _, pr := range j.progress {
		st.ShardsTotal += pr.ShardsTotal
		st.ShardsDone += pr.ShardsDone
	}
	return st
}
