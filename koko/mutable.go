package koko

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/embed"
	"repro/internal/koko/index"
	"repro/internal/koko/wal"
	"repro/internal/nlp"
)

// ErrEmptyDocument marks an ingested document that parses to no sentences.
var ErrEmptyDocument = errors.New("koko: document has no sentences")

// ErrNoDocument marks a delete of a document name with no live document.
var ErrNoDocument = errors.New("koko: no such document")

// Mutable turns an immutable base engine into a live corpus: documents are
// ingested one at a time into a small delta index (LSM-style) while every
// query evaluates against an immutable Snapshot of (base shards + sealed
// delta). Writers never block readers: ingestion appends to the delta and
// seals a new snapshot; a compaction folds the sealed delta into the base
// by re-partitioning the combined corpus, with only two brief critical
// sections around the (slow) shard rebuild. After any sequence of
// single-document ingests — before or after compaction — query results are
// byte-identical to an engine rebuilt from scratch over the same documents.
//
// All methods are safe for concurrent use. Writers (AddDocument, Compact)
// serialize against each other; readers hold whatever Snapshot they
// resolved and are never invalidated.
type Mutable struct {
	opts  *Options
	model *embed.Model
	dicts map[string]map[string]bool

	// compactMu serializes compactions (held across the whole rebuild);
	// mu guards the fields below and is held only for short sections.
	compactMu sync.Mutex
	mu        sync.Mutex
	base      Querier
	delta     *index.Delta
	cur       *Snapshot
	seq       uint64
	// compactShards is the target shard count compaction re-partitions
	// into (defaults to the base's shard count at wrap time).
	compactShards int
	// shardParallel, when > 0, bounds the per-query shard fan-out applied
	// to rebuilt sharded bases (mirrors Registry.SetShardParallelism).
	shardParallel int
	ingests       uint64
	compactions   uint64

	// name labels the corpus in errors and durability metadata.
	name string
	// tombs is the immutable set of tombstoned documents awaiting
	// compaction (copy-on-write: sealed snapshots keep the set they saw).
	tombs *tombSet
	// names maps each live document name to its raw global indices
	// (tombstoned documents are removed as they die).
	names   map[string][]int
	deletes uint64

	// Durable state — nil/zero for memory-only corpora (see durable.go).
	wal           *wal.Log
	dir           string
	baseFiles     []string
	storeGen      uint64
	appliedSeq    uint64
	replayedDocs  uint64
	replayedTombs uint64
	recovery      time.Duration
	swaps         uint64
	closed        bool
	// failpoint, when set by tests, runs at named durable-compaction stages;
	// a non-nil return simulates a crash at that point.
	failpoint func(stage string) error
}

// ErrClosed marks a mutation attempted after Close released the corpus's
// durable resources.
var ErrClosed = errors.New("koko: corpus is closed")

// NewMutable wraps base (an Engine or ShardedEngine, typically fresh from
// NewEngine/Open) as a mutable corpus with an empty delta. opts may be nil
// and should match the options base was built with — sealed delta engines
// are built from it.
func NewMutable(base Querier, opts *Options) *Mutable {
	if opts == nil {
		opts = &Options{}
	}
	model, dicts := deriveModelDicts(opts)
	m := &Mutable{
		opts:          opts,
		model:         model,
		dicts:         dicts,
		base:          base,
		delta:         index.NewDelta(),
		compactShards: base.NumShards(),
		names:         namesOf(base),
	}
	m.mu.Lock()
	m.sealLocked()
	m.mu.Unlock()
	return m
}

// namesOf indexes a base engine's live documents by name.
func namesOf(base Querier) map[string][]int {
	names := make(map[string][]int, base.NumDocuments())
	for i := 0; i < base.NumDocuments(); i++ {
		n := base.DocumentName(i)
		names[n] = append(names[n], i)
	}
	return names
}

// SetName labels the corpus for error messages and stats; the registry sets
// it to the corpus's registered name.
func (m *Mutable) SetName(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.name = name
	m.sealLocked()
}

// Name returns the corpus label set with SetName.
func (m *Mutable) Name() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.name
}

// SetCompactShards overrides how many doc-range shards a compaction
// re-partitions the merged corpus into (the default is the base's shard
// count when the Mutable was created). k <= 1 compacts to a single plain
// engine.
func (m *Mutable) SetCompactShards(k int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if k < 1 {
		k = 1
	}
	m.compactShards = k
}

// SetShardParallelism bounds the per-query shard fan-out applied to every
// sharded base a compaction rebuilds (n <= 0 leaves the engine default).
// The current base is retuned immediately as well.
func (m *Mutable) SetShardParallelism(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shardParallel = n
	if se, ok := m.base.(*ShardedEngine); ok && n > 0 {
		se.SetParallelism(n)
	}
}

// Snapshot returns the current immutable read view. The returned value
// never changes under the caller; later ingests and compactions install new
// snapshots without touching ones already handed out — this is what pins a
// running job or streaming query to the corpus state it started on.
func (m *Mutable) Snapshot() *Snapshot {
	s, _ := m.Current()
	return s
}

// Current returns the current snapshot and its seal sequence number. The
// sequence increases with every installed snapshot, so callers mirroring
// the snapshot elsewhere (the server registry) can discard stale installs.
func (m *Mutable) Current() (*Snapshot, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cur, m.seq
}

// DeltaDocs reports how many ingested documents await compaction.
func (m *Mutable) DeltaDocs() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.delta.NumDocs()
}

// Ingests reports the lifetime count of ingested documents.
func (m *Mutable) Ingests() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ingests
}

// Compactions reports the lifetime count of completed compactions.
func (m *Mutable) Compactions() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.compactions
}

// Tombstones reports how many tombstoned documents await compaction.
func (m *Mutable) Tombstones() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tombs.numDocs()
}

// Deletes reports the lifetime count of delete/update tombstone operations.
func (m *Mutable) Deletes() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.deletes
}

// AddDocument parses text with the NLP pipeline and appends it to the
// delta, sealing a new snapshot in which the document is visible as the
// corpus's last document. Concurrent queries on earlier snapshots are
// untouched.
func (m *Mutable) AddDocument(name, text string) (*Snapshot, error) {
	doc := nlp.NewPipeline().Annotate(0, name, text, 0)
	return m.AddParsedDocument(name, doc.Sentences)
}

// AddParsedDocument ingests an already-parsed document (the bridge corpus
// generators and differential tests use, mirroring WrapCorpus). An empty
// name defaults positionally to "doc<global index>", matching NewCorpus.
// The sentence structs are copied before renumbering, so the caller's
// slice is never mutated.
func (m *Mutable) AddParsedDocument(name string, sents []nlp.Sentence) (*Snapshot, error) {
	if len(sents) == 0 {
		return nil, fmt.Errorf("%w: %q", ErrEmptyDocument, name)
	}
	own := make([]nlp.Sentence, len(sents))
	copy(own, sents)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if name == "" {
		name = fmt.Sprintf("doc%d", m.base.NumDocuments()+m.delta.NumDocs())
	}
	// Write-ahead: a durable corpus logs the document before applying it, so
	// anything visible to a query is replayable after a crash.
	if m.wal != nil {
		if _, err := m.wal.Append(wal.Record{Kind: wal.KindAdd, Name: name, Sents: own}); err != nil {
			return nil, fmt.Errorf("koko: %s: wal append: %w", m.labelLocked(), err)
		}
	}
	m.addLocked(name, own)
	m.ingests++
	m.sealLocked()
	return m.cur, nil
}

// addLocked appends an owned, parsed document to the delta and indexes its
// name. Caller holds m.mu and has already logged the document if durable.
func (m *Mutable) addLocked(name string, own []nlp.Sentence) {
	id := m.base.NumDocuments() + m.delta.NumDocs()
	m.delta.AddDocument(name, own)
	m.names[name] = append(m.names[name], id)
}

// tombstoneLocked tombstones every live document named name and returns how
// many died. Caller holds m.mu and has already logged the tombstone if
// durable.
func (m *Mutable) tombstoneLocked(name string) (int, error) {
	ids := m.names[name]
	if len(ids) == 0 {
		return 0, fmt.Errorf("%w: %q", ErrNoDocument, name)
	}
	spans := make([]docSpan, 0, len(ids))
	for _, id := range ids {
		sp, err := m.docSpanLocked(id)
		if err != nil {
			return 0, err
		}
		spans = append(spans, sp)
	}
	m.tombs = m.tombs.add(spans...)
	delete(m.names, name)
	return len(spans), nil
}

// docSpanLocked resolves a raw global document index to its sentence span.
// Caller holds m.mu.
func (m *Mutable) docSpanLocked(id int) (docSpan, error) {
	rawBase := m.base.NumDocuments()
	if id >= rawBase {
		first, n := m.delta.DocSpan(id - rawBase)
		return docSpan{doc: id, firstSID: m.base.NumSentences() + first, nSents: n}, nil
	}
	switch e := m.base.(type) {
	case *Engine:
		d := e.corpus.c.Docs[id]
		return docSpan{doc: id, firstSID: d.FirstSID, nSents: d.NumSents}, nil
	case *ShardedEngine:
		for si, sp := range e.specs {
			if id >= sp.LoDoc && id < sp.HiDoc {
				d := e.shards[si].corpus.c.Docs[id-sp.LoDoc]
				return docSpan{doc: id, firstSID: sp.FirstSID + d.FirstSID, nSents: d.NumSents}, nil
			}
		}
		return docSpan{}, fmt.Errorf("koko: document %d outside every shard range", id)
	default:
		return docSpan{}, fmt.Errorf("koko: cannot tombstone on a base engine of type %T", m.base)
	}
}

// labelLocked names the corpus for error messages. Caller holds m.mu.
func (m *Mutable) labelLocked() string {
	if m.name == "" {
		return "corpus"
	}
	return fmt.Sprintf("corpus %q", m.name)
}

// DeleteDocument tombstones every live document named name. The documents
// stay physically present in base and delta, but the returned snapshot (and
// every later one) masks them out of all reads; the next compaction folds
// them away. Returns how many documents died; ErrNoDocument if none were
// live.
func (m *Mutable) DeleteDocument(name string) (*Snapshot, int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, 0, ErrClosed
	}
	if len(m.names[name]) == 0 {
		return nil, 0, fmt.Errorf("%w: %q", ErrNoDocument, name)
	}
	if m.wal != nil {
		if _, err := m.wal.Append(wal.Record{Kind: wal.KindTombstone, Name: name}); err != nil {
			return nil, 0, fmt.Errorf("koko: %s: wal append: %w", m.labelLocked(), err)
		}
	}
	n, err := m.tombstoneLocked(name)
	if err != nil {
		return nil, 0, err
	}
	m.deletes++
	m.sealLocked()
	return m.cur, n, nil
}

// PutDocument parses text and upserts it under name: any live documents
// with that name are tombstoned and the new content ingested in their
// place, atomically (a durable corpus writes tombstone and add as one WAL
// batch, so a crash replays both or neither). With no existing document
// this is a plain add; an empty name always adds positionally. Reports
// whether an existing document was replaced.
func (m *Mutable) PutDocument(name, text string) (*Snapshot, bool, error) {
	doc := nlp.NewPipeline().Annotate(0, name, text, 0)
	return m.PutParsedDocument(name, doc.Sentences)
}

// PutParsedDocument upserts an already-parsed document (see PutDocument).
func (m *Mutable) PutParsedDocument(name string, sents []nlp.Sentence) (*Snapshot, bool, error) {
	if name == "" {
		snap, err := m.AddParsedDocument(name, sents)
		return snap, false, err
	}
	if len(sents) == 0 {
		return nil, false, fmt.Errorf("%w: %q", ErrEmptyDocument, name)
	}
	own := make([]nlp.Sentence, len(sents))
	copy(own, sents)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, false, ErrClosed
	}
	replacing := len(m.names[name]) > 0
	if m.wal != nil {
		recs := make([]wal.Record, 0, 2)
		if replacing {
			recs = append(recs, wal.Record{Kind: wal.KindTombstone, Name: name})
		}
		recs = append(recs, wal.Record{Kind: wal.KindAdd, Name: name, Sents: own})
		if _, err := m.wal.Append(recs...); err != nil {
			return nil, false, fmt.Errorf("koko: %s: wal append: %w", m.labelLocked(), err)
		}
	}
	if replacing {
		if _, err := m.tombstoneLocked(name); err != nil {
			return nil, false, err
		}
		m.deletes++
	}
	m.addLocked(name, own)
	m.ingests++
	m.sealLocked()
	return m.cur, replacing, nil
}

// sealLocked installs a fresh snapshot of (base, sealed delta). Caller
// holds m.mu.
func (m *Mutable) sealLocked() {
	m.seq++
	snap := &Snapshot{
		base:       m.base,
		tombs:      m.tombs,
		name:       m.name,
		baseShards: m.base.NumShards(),
		baseDocs:   m.base.NumDocuments(),
		baseSents:  m.base.NumSentences(),
		seq:        m.seq,
	}
	if m.delta.NumDocs() > 0 {
		c, ix := m.delta.Seal()
		snap.delta = assembleEngine(&Corpus{c: c}, ix, m.model, m.dicts, m.opts)
	}
	m.cur = snap
}

// CompactionStats reports what one compaction did.
type CompactionStats struct {
	// Docs / Sentences are how many delta documents were folded into the
	// base (0 means the delta was empty and nothing changed).
	Docs      int
	Sentences int
	// Tombstones is how many tombstoned documents the compaction removed
	// for good.
	Tombstones int
	// Shards is the rebuilt base's shard count.
	Shards int
	// Elapsed is the rebuild wall time.
	Elapsed time.Duration
}

// Compact folds the current sealed delta into the base: the base corpus and
// the delta's documents are merged in ingestion order and re-partitioned
// into the target shard count, exactly as a from-scratch build over the
// same documents would be. Queries keep evaluating on their snapshots
// throughout; documents ingested while the rebuild runs stay in the delta
// and become the new delta afterwards. Compactions serialize; a concurrent
// Compact blocks and then likely no-ops on an empty delta.
func (m *Mutable) Compact() (CompactionStats, error) {
	m.compactMu.Lock()
	defer m.compactMu.Unlock()
	m.mu.Lock()
	closed, durable := m.closed, m.wal != nil
	m.mu.Unlock()
	if closed {
		return CompactionStats{}, ErrClosed
	}
	if durable {
		return m.compactDurable()
	}
	t0 := time.Now()

	// Cut: everything in the delta right now gets folded in, and every
	// tombstone taken so far folds away. Copying the cut is O(delta), tiny
	// next to the rebuild, and the only part that needs the writer lock —
	// ingestion resumes while the shards rebuild.
	m.mu.Lock()
	n := m.delta.NumDocs()
	cutTombs := m.tombs
	if n == 0 && cutTombs.numDocs() == 0 {
		m.mu.Unlock()
		return CompactionStats{}, nil
	}
	base := m.base
	rawBase := base.NumDocuments()
	k := m.compactShards
	sp := m.shardParallel
	cut := &index.Corpus{}
	m.delta.AppendTo(cut, 0, n)
	m.mu.Unlock()

	combined := &index.Corpus{}
	if err := appendLiveDocs(combined, base, cutTombs); err != nil {
		return CompactionStats{}, err
	}
	appendLiveRange(combined, cut, 0, cut.NumDocs(), cutTombs, rawBase)
	var newBase Querier
	if k > 1 {
		se := NewShardedEngine(&Corpus{c: combined}, k, m.opts)
		if sp > 0 {
			se.SetParallelism(sp)
		}
		newBase = se
	} else {
		newBase = NewEngine(&Corpus{c: combined}, m.opts)
	}

	m.mu.Lock()
	m.base = newBase
	m.delta = m.delta.Rebase(n)
	// Tombstones taken while the rebuild ran still mask the new base; their
	// raw coordinates just shift down by the documents folded away.
	m.tombs = renumberTombs(m.tombs, cutTombs)
	renumberNames(m.names, cutTombs)
	m.compactions++
	m.sealLocked()
	m.mu.Unlock()
	return CompactionStats{
		Docs:       n,
		Sentences:  cut.NumSentences(),
		Tombstones: cutTombs.numDocs(),
		Shards:     newBase.NumShards(),
		Elapsed:    time.Since(t0),
	}, nil
}

// appendLiveDocs flattens an immutable base engine's corpus onto dst in
// global document order, skipping tombstoned documents. Only the engine
// shapes the registry installs are supported; anything else cannot be
// compacted.
func appendLiveDocs(dst *index.Corpus, q Querier, tombs *tombSet) error {
	switch e := q.(type) {
	case *Engine:
		appendLiveRange(dst, e.corpus.c, 0, e.corpus.c.NumDocs(), tombs, 0)
	case *ShardedEngine:
		for si, s := range e.shards {
			appendLiveRange(dst, s.corpus.c, 0, s.corpus.c.NumDocs(), tombs, e.specs[si].LoDoc)
		}
	default:
		return fmt.Errorf("koko: cannot compact a base engine of type %T", q)
	}
	return nil
}

// appendLiveRange copies src documents [lo, hi) onto dst in maximal
// contiguous live runs, skipping any document tombstoned at raw global
// index off + local index.
func appendLiveRange(dst, src *index.Corpus, lo, hi int, tombs *tombSet, off int) {
	run := lo
	for i := lo; i <= hi; i++ {
		if i == hi || tombs.contains(off+i) {
			if i > run {
				dst.AppendDocsFrom(src, run, i)
			}
			run = i + 1
		}
	}
}

// renumberNames shifts every live name-map entry down by the tombstoned
// documents a compaction folded away before it.
func renumberNames(names map[string][]int, cut *tombSet) {
	if cut.numDocs() == 0 {
		return
	}
	for _, ids := range names {
		for i, id := range ids {
			ids[i] = id - cut.docsBefore(id)
		}
	}
}

// Snapshot is an immutable read view of a mutable corpus: the base engine
// (one or more doc-range shards) plus, when documents await compaction, a
// sealed delta engine served as one extra shard after the base's. It
// implements Querier, so queries, NDJSON streams, and shard-at-a-time jobs
// all evaluate against it exactly as against a ShardedEngine — with results
// byte-identical to a from-scratch engine over the same documents, delta
// doc and sentence ids rebased into global order after the base's.
type Snapshot struct {
	base  Querier
	delta *Engine // nil when the delta is empty
	// tombs masks deleted documents out of every read until a compaction
	// folds them away (nil when none are live).
	tombs *tombSet
	name  string
	seq   uint64

	baseShards, baseDocs, baseSents int
}

var _ Querier = (*Snapshot)(nil)

// Seq returns the snapshot's seal sequence (monotonic per Mutable).
func (s *Snapshot) Seq() uint64 { return s.seq }

// Base returns the underlying immutable base engine (for stats and tests).
func (s *Snapshot) Base() Querier { return s.base }

// DeltaDocs reports how many documents the sealed delta holds.
func (s *Snapshot) DeltaDocs() int {
	if s.delta == nil {
		return 0
	}
	return s.delta.NumDocuments()
}

// DeltaSentences reports the sealed delta's sentence count.
func (s *Snapshot) DeltaSentences() int {
	if s.delta == nil {
		return 0
	}
	return s.delta.NumSentences()
}

// Tombstones reports how many tombstoned documents the snapshot masks.
func (s *Snapshot) Tombstones() int { return s.tombs.numDocs() }

// NumShards counts the base shards plus the delta (when non-empty).
func (s *Snapshot) NumShards() int {
	if s.delta == nil {
		return s.baseShards
	}
	return s.baseShards + 1
}

// NumDocuments counts live documents: base plus delta, minus tombstones.
func (s *Snapshot) NumDocuments() int { return s.baseDocs + s.DeltaDocs() - s.tombs.numDocs() }

// NumSentences counts live sentences: base plus delta, minus tombstones.
func (s *Snapshot) NumSentences() int { return s.baseSents + s.DeltaSentences() - s.tombs.numSents() }

// DocumentName resolves a masked global document index across base and
// delta, skipping tombstoned documents.
func (s *Snapshot) DocumentName(i int) string {
	i = s.tombs.rawDoc(i)
	if i < s.baseDocs {
		return s.base.DocumentName(i)
	}
	if s.delta != nil {
		return s.delta.DocumentName(i - s.baseDocs)
	}
	return ""
}

// Fanout reports how many shard evaluations one query effectively runs
// concurrently: the base's fan-out. The delta does evaluate alongside the
// base, but it is bounded by the compaction threshold and tiny next to the
// base shards, so it is not charged a fan-out slot — charging it one would
// halve a single-shard corpus's intra-shard worker budget for as long as
// any ingested document awaits compaction.
func (s *Snapshot) Fanout() int {
	if se, ok := s.base.(*ShardedEngine); ok {
		return se.Parallelism()
	}
	return 1
}

// Query parses and evaluates a KOKO query against the snapshot.
func (s *Snapshot) Query(src string) (*Result, error) { return query(s, src, nil) }

// Run evaluates an already-parsed query across base shards and the sealed
// delta as a lazy stream: base shards deliver first in shard order, the
// delta's tuples (rebased after the base's) last — global document order,
// with tombstoned documents masked out batch by batch. The delta's start
// gate is closed up front (eager admission, see StreamShardsEager), so it
// evaluates concurrently with the base fan-out from the first moment
// without charging a fan-out slot (see Fanout); its output parks in the
// delta shard's bounded buffer until the ordered merge reaches it. Safe
// for concurrent use.
func (s *Snapshot) Run(ctx context.Context, p *ParsedQuery, qo *QueryOptions) (*TupleSeq, error) {
	var eager []int
	if s.delta != nil {
		eager = []int{s.baseShards} // the delta is the last shard
	}
	return StreamShardsEager(ctx, s.NumShards(), s.Fanout(), eager,
		func(ctx context.Context, shard int, emit func([]Tuple) error) (*Result, error) {
			return s.StreamShard(ctx, shard, p, qo, emit)
		}, false), nil
}

// StreamShard evaluates one shard of the snapshot as a stream: base shards
// keep their indices, and the sealed delta is addressable as the last
// shard, its tuples rebased after the base's. Tombstoned documents are
// masked out of every batch and the returned summary, so emitted tuples are
// already in masked global coordinates. This is the progress unit the
// server's job executor schedules — a job submitted against a snapshot stays
// pinned to it however many ingests happen meanwhile.
func (s *Snapshot) StreamShard(ctx context.Context, shard int, p *ParsedQuery, qo *QueryOptions, emit func(tuples []Tuple) error) (*Result, error) {
	dropped := map[int]bool{}
	masked := s.maskEmit(emit, dropped)
	switch {
	case shard >= 0 && shard < s.baseShards:
		sum, err := s.base.StreamShard(ctx, shard, p, qo, masked)
		if err != nil {
			return nil, err
		}
		return s.maskSummary(sum, dropped), nil
	case s.delta != nil && shard == s.baseShards:
		sum, err := s.delta.StreamShard(ctx, 0, p, qo, func(ts []Tuple) error {
			for k := range ts {
				ts[k].Document += s.baseDocs
				ts[k].SentenceID += s.baseSents
			}
			return masked(ts)
		})
		if err != nil {
			return nil, err
		}
		return s.maskSummary(sum, dropped), nil
	}
	return nil, fmt.Errorf("koko: shard %d out of range (snapshot has %d)", shard, s.NumShards())
}

// maskEmit wraps a batch consumer with tombstone masking in raw global
// coordinates: tuples of tombstoned documents are dropped (their distinct
// sentences recorded in dropped for the Matched adjustment), survivors
// renumbered to masked global ids in place.
func (s *Snapshot) maskEmit(emit func([]Tuple) error, dropped map[int]bool) func([]Tuple) error {
	if s.tombs.numDocs() == 0 {
		return emit
	}
	return func(ts []Tuple) error {
		out := ts[:0]
		for _, t := range ts {
			if s.tombs.contains(t.Document) {
				dropped[t.SentenceID] = true
				continue
			}
			t.Document -= s.tombs.docsBefore(t.Document)
			t.SentenceID -= s.tombs.sentsBefore(t.SentenceID)
			out = append(out, t)
		}
		if len(out) == 0 {
			return nil
		}
		return emit(out)
	}
}

// maskSummary masks a streamed shard's counters. Matched and Candidates are
// pruning diagnostics, not visible rows: Candidates keeps the raw pre-mask
// count (the index did scan those sentences), and Matched drops by the
// distinct tombstoned sentences whose tuples were masked — a tombstoned
// sentence whose extractions the satisfying clause already filtered stays
// counted, so Matched can exceed a from-scratch rebuild's by those sentences.
func (s *Snapshot) maskSummary(sum *Result, dropped map[int]bool) *Result {
	if s.tombs.numDocs() == 0 {
		return sum
	}
	return &Result{
		Candidates: sum.Candidates,
		Matched:    sum.Matched - len(dropped),
		Elapsed:    sum.Elapsed,
		Phases:     sum.Phases,
	}
}

// Stats aggregates index statistics across base shards and delta.
func (s *Snapshot) Stats() IndexStats { return MergeShardStats(s.ShardStats()) }

// ShardStats reports the base shards followed by the sealed delta (marked
// Delta) when one rides along.
func (s *Snapshot) ShardStats() []ShardStat {
	out := s.base.ShardStats()
	if s.delta != nil {
		out = append(out, ShardStat{
			Shard:     s.baseShards,
			Documents: s.delta.NumDocuments(),
			Sentences: s.delta.NumSentences(),
			Index:     s.delta.Stats(),
			Delta:     true,
		})
	}
	return out
}

// Save persists the snapshot only when no delta documents or tombstones
// ride along (the base is then the whole corpus). With a live delta or
// pending deletes there is no on-disk form for the combined state — compact
// first, then save; after an explicit Compact, Save always succeeds.
func (s *Snapshot) Save(path string) error {
	if s.delta != nil || s.tombs.numDocs() > 0 {
		label := "snapshot"
		if s.name != "" {
			label = fmt.Sprintf("corpus %q", s.name)
		}
		return fmt.Errorf("koko: %s has %d uncompacted delta documents and %d live tombstones; compact before saving", label, s.DeltaDocs(), s.tombs.numDocs())
	}
	return s.base.Save(path)
}

// Save persists the Mutable's current snapshot (see Snapshot.Save): it
// fails while delta documents or tombstones await compaction, and succeeds
// right after an explicit Compact.
func (m *Mutable) Save(path string) error { return m.Snapshot().Save(path) }

// Run evaluates an already-parsed query against the current snapshot (see
// Snapshot.Run). The stream stays pinned to that snapshot however many
// ingests, deletes, or compactions happen while it drains.
func (m *Mutable) Run(ctx context.Context, p *ParsedQuery, qo *QueryOptions) (*TupleSeq, error) {
	return m.Snapshot().Run(ctx, p, qo)
}
