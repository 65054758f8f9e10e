package koko

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
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

// ErrClosed marks a mutation attempted after Close.
var ErrClosed = errors.New("koko: corpus is closed")

// MutableConfig configures a corpus (see OpenMutable). The zero value is a
// memory-only corpus with default engine options that compacts only when
// asked to.
type MutableConfig struct {
	// Name labels the corpus in errors, logs, and snapshots.
	Name string
	// Opts configures the query engines (nil = defaults). Sealed delta
	// engines and compacted shards are built with it, so it should match
	// the options the seed was built with.
	Opts *Options
	// Dir, when non-empty, makes the corpus durable: its shard set and WAL
	// live in Dir (see durable.go). Sync is the WAL fsync policy.
	Dir  string
	Sync wal.SyncPolicy
	// ShardParallel > 0 bounds the per-query shard fan-out of the seed and
	// of every base a compaction installs (<= 0 keeps the engine default).
	ShardParallel int
	// The corpus starts a background compaction when its delta holds
	// MaxDeltaDocs documents, when its WAL reaches WALMaxBytes, and every
	// CompactInterval; each trigger is off when <= 0.
	MaxDeltaDocs    int
	WALMaxBytes     int64
	CompactInterval time.Duration
}

// Mutable is the one owner of a live corpus's lifecycle. Documents are
// ingested one at a time into a small delta index (LSM-style) and deletes
// are tombstones, while every query evaluates against an immutable Snapshot
// of (base shards + sealed delta − tombstones). The corpus decides when to
// compact (MutableConfig's triggers) and — when durable — logs every
// mutation before applying it. After any sequence of ingests, deletes, and
// compactions, query results are byte-identical to an engine rebuilt from
// scratch over the live documents.
//
// All methods are safe for concurrent use. Writers serialize on the writer
// lock; readers load the published snapshot and never take it, so no
// reader ever waits on a writer.
type Mutable struct {
	cfg MutableConfig
	// label names the corpus in errors and logs.
	label string
	model *embed.Model
	dicts map[string]map[string]bool
	// cur is the published snapshot readers load without locking.
	cur atomic.Pointer[Snapshot]

	// compactMu serializes compactions (held across the whole rebuild);
	// mu guards the writer state below and is held only for short sections.
	compactMu sync.Mutex
	mu        sync.Mutex
	base      *Engine
	delta     *index.Delta
	seq       uint64
	// tombs is the immutable set of tombstoned documents awaiting
	// compaction (copy-on-write: sealed snapshots keep the set they saw).
	tombs *tombSet
	// names maps each live document name to its raw global indices
	// (tombstoned documents are removed as they die).
	names map[string][]int
	// life holds the lifetime counters every seal stamps into its snapshot.
	life   LifecycleStats
	closed bool
	// folding marks a background fold in flight, bg counts the folds Close
	// waits for, and timer drives the interval trigger.
	folding bool
	bg      sync.WaitGroup
	timer   *time.Timer

	// baseFiles names each base shard's store file ("" for memory-only
	// corpora, whose wal is nil; see durable.go).
	wal       *wal.Log
	baseFiles []string
	// failpoint, when set by tests, runs at named durable-compaction stages;
	// a non-nil return simulates a crash at that point.
	failpoint func(stage string) error
}

// OpenMutable opens a corpus over seed, which must be a local *Engine or
// nil (an empty corpus); any other Querier is refused. A memory-only corpus
// (cfg.Dir empty) serves seed as its base. A durable corpus persists seed
// as generation 1 when cfg.Dir holds no corpus yet, and otherwise ignores
// it, loading the persisted shard set and replaying the WAL so the
// snapshot matches the pre-restart state exactly.
func OpenMutable(seed Querier, cfg MutableConfig) (*Mutable, error) {
	t0 := time.Now()
	if cfg.Opts == nil {
		cfg.Opts = &Options{}
	}
	base, ok := seed.(*Engine)
	if seed != nil && !ok {
		return nil, fmt.Errorf("koko: a corpus seed must be a local *koko.Engine, not %T", seed)
	}
	if base == nil {
		base = NewEngine(&Corpus{c: &index.Corpus{}}, cfg.Opts)
	}
	files := make([]string, base.NumShards())
	var gen, applied uint64
	if cfg.Dir != "" {
		var err error
		if base, files, gen, applied, err = openDurableDir(cfg.Dir, base, cfg.Opts); err != nil {
			return nil, err
		}
	}
	m := &Mutable{
		cfg:       cfg,
		label:     "corpus",
		base:      base,
		delta:     index.NewDelta(),
		names:     make(map[string][]int, base.NumDocuments()),
		baseFiles: files,
	}
	for i := 0; i < base.NumDocuments(); i++ {
		n := base.DocumentName(i)
		m.names[n] = append(m.names[n], i)
	}
	if cfg.Name != "" {
		m.label = fmt.Sprintf("corpus %q", cfg.Name)
	}
	m.model, m.dicts = deriveModelDicts(cfg.Opts)
	m.tune(base)
	if cfg.Dir != "" {
		if err := m.replay(applied); err != nil {
			return nil, err
		}
		m.life.Durable, m.life.Generation, m.life.Recovery = true, gen, time.Since(t0)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sealLocked()
	if cfg.CompactInterval > 0 {
		m.timer = time.AfterFunc(cfg.CompactInterval, m.tick)
	}
	return m, nil
}

// NewMutable wraps base (typically fresh from NewEngine or Open) as a
// memory-only corpus with an empty delta; see OpenMutable. opts may be nil.
func NewMutable(base *Engine, opts *Options) *Mutable {
	m, _ := OpenMutable(base, MutableConfig{Opts: opts}) // memory-only opens of an Engine cannot fail
	return m
}

// tune applies the configured shard fan-out bound to a base.
func (m *Mutable) tune(base *Engine) {
	if m.cfg.ShardParallel > 0 {
		base.SetParallelism(m.cfg.ShardParallel)
	}
}

// Snapshot returns the current immutable read view without taking the
// writer lock. The returned value never changes under the caller; later
// ingests and compactions publish new snapshots without touching ones
// already handed out — this is what pins a running job or streaming query
// to the corpus state it started on.
func (m *Mutable) Snapshot() *Snapshot { return m.cur.Load() }

// AddParsedDocument appends an already-parsed document to the delta (the
// bridge corpus generators and differential tests use, mirroring
// WrapCorpus), sealing a new snapshot in which it is the corpus's last
// document; concurrent queries on earlier snapshots are untouched. An
// empty name defaults positionally to "doc<global index>", matching
// NewCorpus. The caller's sentences are only read.
func (m *Mutable) AddParsedDocument(name string, sents []nlp.Sentence) (*Snapshot, error) {
	snap, _, err := m.write(name, sents, true, false)
	return snap, err
}

// write is the one mutation path. Under the writer lock it tombstones the
// live documents named name (kill) and ingests sents under name (add),
// logging both as one WAL batch first when durable — write-ahead, so
// anything a query sees is replayable after a crash, and an upsert replays
// whole or not at all — then seals. Returns how many documents died.
func (m *Mutable) write(name string, sents []nlp.Sentence, add, kill bool) (*Snapshot, int, error) {
	if add && len(sents) == 0 {
		return nil, 0, fmt.Errorf("%w: %q", ErrEmptyDocument, name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, 0, ErrClosed
	}
	if add && name == "" {
		name = fmt.Sprintf("doc%d", m.base.NumDocuments()+m.delta.NumDocs())
	}
	var recs []wal.Record
	if kill = kill && len(m.names[name]) > 0; kill {
		recs = append(recs, wal.Record{Kind: wal.KindTombstone, Name: name})
	} else if !add {
		return nil, 0, fmt.Errorf("%w: %q", ErrNoDocument, name)
	}
	if add {
		recs = append(recs, wal.Record{Kind: wal.KindAdd, Name: name, Sents: sents})
	}
	if m.wal != nil {
		if _, err := m.wal.Append(recs...); err != nil {
			return nil, 0, fmt.Errorf("koko: %s: wal append: %w", m.label, err)
		}
	}
	died := 0
	if kill {
		var err error
		if died, err = m.tombstoneLocked(name); err != nil {
			return nil, 0, err
		}
		m.life.Deletes++
	}
	if add {
		m.addLocked(name, sents)
		m.life.Ingests++
	}
	m.sealLocked()
	return m.cur.Load(), died, nil
}

// addLocked appends a parsed document to the delta and indexes its name.
// Caller holds m.mu and has already logged the document if durable.
func (m *Mutable) addLocked(name string, sents []nlp.Sentence) {
	id := m.base.NumDocuments() + m.delta.NumDocs()
	m.delta.AddDocument(name, sents)
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
	for si, sp := range m.base.specs {
		if id >= sp.LoDoc && id < sp.HiDoc {
			d := m.base.shards[si].c.Docs[id-sp.LoDoc]
			return docSpan{doc: id, firstSID: sp.FirstSID + d.FirstSID, nSents: d.NumSents}, nil
		}
	}
	return docSpan{}, fmt.Errorf("koko: document %d outside every shard range", id)
}

// DeleteDocument tombstones every live document named name. The documents
// stay physically present in base and delta, but the returned snapshot (and
// every later one) masks them out of all reads; the next compaction folds
// them away. Returns how many documents died; ErrNoDocument if none were
// live.
func (m *Mutable) DeleteDocument(name string) (*Snapshot, int, error) {
	return m.write(name, nil, false, true)
}

// PutDocument parses text and upserts it under name: any live documents
// with that name are tombstoned and the new content ingested in their
// place, atomically. With no existing document this is a plain add; an
// empty name always adds positionally. Reports whether an existing
// document was replaced.
func (m *Mutable) PutDocument(name, text string) (*Snapshot, bool, error) {
	doc := nlp.NewPipeline().Annotate(0, name, text, 0)
	return m.PutParsedDocument(name, doc.Sentences)
}

// PutParsedDocument upserts an already-parsed document (see PutDocument).
func (m *Mutable) PutParsedDocument(name string, sents []nlp.Sentence) (*Snapshot, bool, error) {
	snap, died, err := m.write(name, sents, true, name != "")
	return snap, died > 0, err
}

// sealLocked publishes a fresh snapshot of (base, sealed delta, tombstones)
// at the next sequence number, then starts a background fold if a size
// trigger has fired. Caller holds m.mu.
func (m *Mutable) sealLocked() {
	m.seq++
	snap := &Snapshot{
		base:  m.base,
		set:   m.base,
		tombs: m.tombs,
		label: m.label,
		seq:   m.seq,
		life:  m.lifeLocked(),
	}
	if m.delta.NumDocs() > 0 {
		c, ix := m.delta.Seal()
		snap.delta = newLeaf(c, ix, m.model, m.dicts, m.cfg.Opts)
		snap.set = m.base.withShard(snap.delta)
	}
	m.cur.Store(snap)
	if (m.cfg.MaxDeltaDocs > 0 && m.delta.NumDocs() >= m.cfg.MaxDeltaDocs) ||
		(m.cfg.WALMaxBytes > 0 && snap.life.WALBytes >= m.cfg.WALMaxBytes) {
		m.foldLocked()
	}
}

// restampLocked republishes the current snapshot with fresh lifetime
// counters: same data, same sequence number. Caller holds m.mu.
func (m *Mutable) restampLocked() {
	snap := *m.cur.Load()
	snap.life = m.lifeLocked()
	m.cur.Store(&snap)
}

// lifeLocked reads the lifetime counters, WAL size included. Caller holds
// m.mu.
func (m *Mutable) lifeLocked() LifecycleStats {
	ls := m.life
	if m.wal != nil {
		ls.WALAppends = m.wal.Appends()
		ls.WALBytes = m.wal.Size()
	}
	return ls
}

// foldLocked starts a background compaction unless one is in flight or the
// corpus is closed. Caller holds m.mu.
func (m *Mutable) foldLocked() {
	if m.folding || m.closed {
		return
	}
	m.folding = true
	m.bg.Add(1)
	go func() {
		defer m.bg.Done()
		_, err := m.Compact()
		if errors.Is(err, ErrClosed) {
			err = nil // Close won the race; nothing failed
		}
		if err != nil {
			// No caller sees a background failure, so log and count it: a
			// failing fold must not let the delta grow in silence.
			log.Printf("koko: %s: background compaction: %v", m.label, err)
		}
		m.mu.Lock()
		defer m.mu.Unlock()
		m.folding = false
		if err != nil {
			m.life.CompactionErrors++
			m.restampLocked()
		}
	}()
}

// tick is the interval trigger: fold whatever is pending, then re-arm
// until Close.
func (m *Mutable) tick() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	if m.delta.NumDocs() > 0 || m.tombs.numDocs() > 0 {
		m.foldLocked()
	}
	m.timer.Reset(m.cfg.CompactInterval)
}

// CompactionStats reports what one compaction did: the delta documents
// and sentences folded into the base (0 = the delta was empty), the
// tombstoned documents removed for good, and the rebuild wall time.
type CompactionStats struct {
	Docs, Sentences, Tombstones int
	Elapsed                     time.Duration
}

// Compact folds the sealed delta and every live tombstone into the base,
// incrementally: a base shard with no tombstone in its doc range keeps its
// engine (and, durable, its file), a shard with deleted documents is rebuilt
// without them, and the delta's survivors become one appended shard. A
// durable corpus persists the new shards, swaps its manifest, and only then
// truncates the WAL — crash-safe at every step (see durable.go). Queries
// keep evaluating on their snapshots throughout; documents ingested while
// the rebuild runs stay in the delta. Compactions serialize: an explicit
// Compact waits for a background fold in flight.
func (m *Mutable) Compact() (CompactionStats, error) {
	m.compactMu.Lock()
	defer m.compactMu.Unlock()
	t0 := time.Now()

	// Cut under the writer lock: the delta prefix, the tombstones to fold,
	// and the WAL horizon. Appends happen under the same lock, so every
	// record with Seq <= cutSeq is exactly the state being folded. Copying
	// the cut is O(delta); ingestion resumes while the shards rebuild.
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return CompactionStats{}, ErrClosed
	}
	n := m.delta.NumDocs()
	cutTombs := m.tombs
	if n == 0 && cutTombs.numDocs() == 0 {
		m.mu.Unlock()
		return CompactionStats{}, nil
	}
	base := m.base
	rawBase := base.NumDocuments()
	cut := index.NewColumns()
	m.delta.AppendTo(cut, 0, n)
	durable, dir := m.wal != nil, m.cfg.Dir
	var cutSeq uint64
	if durable {
		cutSeq = m.wal.LastSeq()
	}
	gen := m.life.Generation + 1
	oldFiles := m.baseFiles
	m.mu.Unlock()

	var (
		leaves   []*leaf
		specs    []index.ShardSpec
		files    []string
		obsolete []string // old files superseded by this generation
	)
	docOff, sidOff := 0, 0
	keep := func(l *leaf, tokens int, file string) {
		nd, ns := l.c.NumDocs(), l.c.NumSentences()
		leaves, files = append(leaves, l), append(files, file)
		specs = append(specs, index.ShardSpec{LoDoc: docOff, HiDoc: docOff + nd, FirstSID: sidOff, NumSents: ns, Tokens: tokens})
		docOff += nd
		sidOff += ns
	}
	build := func(c *index.Columns, slot int) error {
		l, file := buildLeaf(c, m.cfg.Opts), ""
		if durable {
			file = shardGenFile(gen, slot)
			if err := saveStoreDurable(l, filepath.Join(dir, file)); err != nil {
				return err
			}
			if err := m.fail("mid-shard-write"); err != nil {
				return err
			}
		}
		keep(l, c.NumTokens(), file)
		return nil
	}
	for si, spec := range base.specs {
		if cutTombs.docsBefore(spec.HiDoc) == cutTombs.docsBefore(spec.LoDoc) {
			keep(base.shards[si], spec.Tokens, oldFiles[si])
			continue
		}
		obsolete = append(obsolete, oldFiles[si])
		src := base.shards[si].c
		c := index.NewColumns()
		appendLiveRange(c, src, 0, src.NumDocs(), cutTombs, spec.LoDoc)
		if c.NumDocs() == 0 {
			continue // every document died; the shard vanishes
		}
		if err := build(c, si); err != nil {
			return CompactionStats{}, err
		}
	}
	dc := index.NewColumns()
	appendLiveRange(dc, cut, 0, cut.NumDocs(), cutTombs, rawBase)
	if dc.NumDocs() > 0 {
		if err := build(dc, len(base.specs)); err != nil {
			return CompactionStats{}, err
		}
	}
	if len(leaves) == 0 {
		// Everything was deleted; a base (and a manifest) holds at least one
		// shard, so keep a single empty one.
		if err := build(index.NewColumns(), 0); err != nil {
			return CompactionStats{}, err
		}
	}
	if durable { // the commit point: swap in the new generation's manifest
		if err := m.fail("pre-manifest-swap"); err != nil {
			return CompactionStats{}, err
		}
		if err := writeDurableManifest(dir, files, specs, gen, cutSeq); err != nil {
			return CompactionStats{}, err
		}
		if err := m.fail("post-manifest-swap"); err != nil {
			return CompactionStats{}, err
		}
	}

	newBase := newSharded(leaves, specs)
	m.tune(newBase)
	m.mu.Lock()
	m.base = newBase
	m.delta = m.delta.Rebase(n)
	// Tombstones taken while the rebuild ran still mask the new base; their
	// raw coordinates just shift down by the documents folded away.
	m.tombs = renumberTombs(m.tombs, cutTombs)
	renumberNames(m.names, cutTombs)
	m.baseFiles = files
	m.life.Compactions++
	if durable {
		m.life.Generation = gen
		m.life.Swaps++
	}
	m.sealLocked()
	m.mu.Unlock()
	stats := CompactionStats{
		Docs:       n,
		Sentences:  cut.NumSentences(),
		Tombstones: cutTombs.numDocs(),
		Elapsed:    time.Since(t0),
	}
	if !durable {
		return stats, nil
	}

	if err := m.fail("pre-wal-truncate"); err != nil {
		return stats, err
	}
	// Both cleanups are safe to lose to a crash: replay filters the stale
	// WAL prefix by wal_applied, and the next open sweeps unreferenced
	// generation files.
	err := m.wal.TruncatePrefix(cutSeq)
	m.mu.Lock()
	m.restampLocked() // publish the shrunken WAL size
	m.mu.Unlock()
	if err != nil {
		return stats, fmt.Errorf("koko: truncate wal after compaction: %w", err)
	}
	for _, f := range obsolete {
		os.Remove(filepath.Join(dir, f))
	}
	return stats, nil
}

// appendLiveRange copies src documents [lo, hi) onto dst in maximal
// contiguous live runs, skipping any document tombstoned at raw global
// index off + local index.
func appendLiveRange(dst, src *index.Columns, lo, hi int, tombs *tombSet, off int) {
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

// Close stops the compaction timer, waits for any fold in flight, and
// releases a durable corpus's WAL. Mutations and compactions after Close
// fail with ErrClosed; snapshots already handed out keep working.
func (m *Mutable) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	if m.timer != nil {
		m.timer.Stop()
	}
	m.mu.Unlock()
	m.bg.Wait()
	// An explicit compaction in flight uses the WAL outside mu (the
	// post-swap prefix truncation), so wait for it before closing the log.
	m.compactMu.Lock()
	defer m.compactMu.Unlock()
	if m.wal == nil {
		return nil
	}
	return m.wal.Close()
}

// LifecycleStats is a corpus's lifetime counters as of one snapshot:
// documents ingested, delete/update tombstone operations, completed folds
// (tombstone-only ones too), and failed background folds. Durable corpora
// add the persisted shard set's generation, the manifest swaps, WAL
// appends and size, and what the last open replayed and how long it took.
type LifecycleStats struct {
	Ingests, Deletes, Compactions, CompactionErrors uint64

	Durable                     bool
	Generation, Swaps           uint64
	WALAppends                  uint64
	WALBytes                    int64
	ReplayedDocs, ReplayedTombs uint64
	Recovery                    time.Duration
}

// Snapshot is an immutable read view of a mutable corpus: an immutable
// list of shards — the base engine's, plus, when documents await
// compaction, the sealed delta as one more shard rebased after the base's —
// minus the tombstoned documents. It implements Querier, so queries, NDJSON
// streams, and shard-at-a-time jobs all evaluate against it exactly as
// against an Engine, with results byte-identical to a from-scratch engine
// over the same documents.
type Snapshot struct {
	base *Engine
	// set is base's shards followed by the delta's; base itself when the
	// delta is empty.
	set   *Engine
	delta *leaf // nil when the delta is empty
	// tombs masks deleted documents out of every read until a compaction
	// folds them away (nil when none are live).
	tombs *tombSet
	label string
	seq   uint64
	life  LifecycleStats
}

var _ Querier = (*Snapshot)(nil)

// Seq returns the snapshot's seal sequence (monotonic per Mutable, starting
// at 1).
func (s *Snapshot) Seq() uint64 { return s.seq }

// Lifecycle returns the corpus's lifetime counters as of this snapshot.
func (s *Snapshot) Lifecycle() LifecycleStats { return s.life }

// Base returns the underlying immutable base engine (for stats and tests).
func (s *Snapshot) Base() *Engine { return s.base }

// DeltaDocs reports how many documents the sealed delta holds.
func (s *Snapshot) DeltaDocs() int {
	if s.delta == nil {
		return 0
	}
	return s.delta.c.NumDocs()
}

// DeltaSentences reports the sealed delta's sentence count.
func (s *Snapshot) DeltaSentences() int {
	if s.delta == nil {
		return 0
	}
	return s.delta.c.NumSentences()
}

// Tombstones reports how many tombstoned documents the snapshot masks.
func (s *Snapshot) Tombstones() int { return s.tombs.numDocs() }

// NumShards counts the base shards plus the delta (when non-empty).
func (s *Snapshot) NumShards() int { return s.set.NumShards() }

// NumDocuments counts live documents: base plus delta, minus tombstones.
func (s *Snapshot) NumDocuments() int { return s.set.NumDocuments() - s.tombs.numDocs() }

// NumSentences counts live sentences: base plus delta, minus tombstones.
func (s *Snapshot) NumSentences() int { return s.set.NumSentences() - s.tombs.numSents() }

// DocumentName resolves a masked global document index across base and
// delta, skipping tombstoned documents.
func (s *Snapshot) DocumentName(i int) string { return s.set.DocumentName(s.tombs.rawDoc(i)) }

// Query parses and evaluates a KOKO query against the snapshot.
func (s *Snapshot) Query(src string) (*Result, error) { return query(s, src, nil) }

// Run evaluates an already-parsed query across base shards and the sealed
// delta as a lazy stream: base shards deliver first in shard order, the
// delta's tuples last — global document order, with tombstoned documents
// masked out batch by batch. The delta's start gate is closed up front
// (eager admission, see StreamShardsEager), so it evaluates concurrently
// with the base fan-out from the first moment without charging a fan-out
// slot (it is tiny next to the base); its output parks in the delta shard's
// run-ahead until the ordered merge reaches it. The base shards fan out as
// wide as the base's parallelism, capped by their count. Safe for
// concurrent use.
func (s *Snapshot) Run(ctx context.Context, p *ParsedQuery, qo *QueryOptions) (*TupleSeq, error) {
	var eager []int
	if s.delta != nil {
		eager = []int{s.base.NumShards()} // the delta is the last shard
	}
	return StreamShardsEager(ctx, s.NumShards(), min(s.base.Parallelism(), s.base.NumShards()), eager,
		func(ctx context.Context, shard int, emit func(Batch) error) (*Result, error) {
			return s.StreamShard(ctx, shard, p, qo, emit)
		}, false), nil
}

// StreamShard evaluates one shard of the snapshot as a stream: base shards
// keep their indices, and the sealed delta is addressable as the last
// shard. Tombstoned documents are masked out of every batch and the
// returned summary, so emitted tuples are already in masked global
// coordinates. This is the progress unit the server's job executor
// schedules — a job submitted against a snapshot stays pinned to it however
// many ingests happen meanwhile.
func (s *Snapshot) StreamShard(ctx context.Context, shard int, p *ParsedQuery, qo *QueryOptions, emit func(Batch) error) (*Result, error) {
	dropped := map[int]bool{}
	sum, err := s.set.StreamShard(ctx, shard, p, qo, s.maskEmit(emit, dropped))
	if err != nil {
		return nil, err
	}
	return s.maskSummary(sum, dropped), nil
}

// maskEmit wraps a batch consumer with tombstone masking in raw global
// coordinates: tuples of tombstoned documents are dropped (their distinct
// sentences recorded in dropped for the Matched adjustment), survivors
// renumbered to masked global ids in place: the shard set's batches are
// local, so their tuples belong to the receiver.
func (s *Snapshot) maskEmit(emit func(Batch) error, dropped map[int]bool) func(Batch) error {
	if s.tombs.numDocs() == 0 {
		return emit
	}
	return func(b Batch) error {
		ts, err := b.Tuples()
		if err != nil {
			return err
		}
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
		return emit(BatchOf(out))
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
	out := s.set.ShardStats()
	if s.delta != nil {
		out[len(out)-1].Delta = true
	}
	return out
}

// Save persists the snapshot only when no delta documents or tombstones
// ride along (the base is then the whole corpus). With a live delta or
// pending deletes there is no on-disk form for the combined state — compact
// first, then save; after an explicit Compact, Save always succeeds.
func (s *Snapshot) Save(path string) error {
	if s.delta != nil || s.tombs.numDocs() > 0 {
		return fmt.Errorf("koko: %s has %d uncompacted delta documents and %d live tombstones; compact before saving", s.label, s.DeltaDocs(), s.tombs.numDocs())
	}
	return s.base.Save(path)
}
