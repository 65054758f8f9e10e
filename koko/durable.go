package koko

// Durable corpora: a Mutable whose mutations survive restarts.
//
// On-disk layout, one directory per corpus:
//
//	<dir>/MANIFEST          JSON manifest (manifest.go): shard files + specs
//	                        and {generation, wal_applied}
//	<dir>/gen<G>.shard<I>   one stand-alone block store per base shard,
//	                        named by the generation that wrote it
//	<dir>/wal.log           append-only log of adds and tombstones since
//	                        the last compaction swap
//
// Every mutation is logged before it is applied (write-ahead), so the state
// any query ever observed is reconstructible: OpenDurable loads the
// manifest's shard set, then replays WAL records with Seq > wal_applied
// into a fresh delta — the post-restart snapshot is identical to the
// pre-crash one.
//
// Compaction is incremental and crash-safe: base shards untouched by
// tombstones keep their engines and files (the new manifest simply
// references the old-generation file, so the bytes and mtime never change);
// shards with deleted documents are rebuilt to new-generation files; the
// cut delta becomes one appended shard. The manifest swap is
// write-temp + fsync + rename + fsync-dir, and only after the swap is the
// WAL prefix truncated — a crash at any point recovers to exactly the old
// or the new generation, never a torn mix. Orphaned new-generation files
// from a crashed compaction are swept on the next open.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/koko/index"
	"repro/internal/koko/wal"
)

const (
	manifestName = "MANIFEST"
	walName      = "wal.log"
)

func shardGenFile(gen uint64, i int) string {
	return fmt.Sprintf("gen%d.shard%d", gen, i)
}

// DurableConfig configures OpenDurable.
type DurableConfig struct {
	// Dir is the corpus's durable directory (created if missing).
	Dir string
	// Sync is the WAL fsync policy (zero value: batched group commit).
	Sync wal.SyncPolicy
	// Opts configures the query engines, as with NewMutable.
	Opts *Options
}

// HasDurableState reports whether dir already holds a durable corpus (its
// manifest exists) — callers then know a seed engine would be ignored.
func HasDurableState(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// OpenDurable opens (or creates) the durable corpus in cfg.Dir. With no
// existing state, seed becomes generation 1 of the persisted shard set
// (seed may be nil for an empty corpus); with a manifest present, seed is
// ignored and the shard set loads from disk. The WAL then replays every
// un-compacted mutation into a fresh delta, so the returned Mutable's
// snapshot matches the pre-restart state exactly. Recovery counters are
// reported by Durability.
func OpenDurable(seed Querier, cfg DurableConfig) (*Mutable, error) {
	t0 := time.Now()
	dir := cfg.Dir
	if dir == "" {
		return nil, errors.New("koko: durable corpus needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var (
		base  *ShardedEngine
		files []string
		gen   uint64
		appl  uint64
		err   error
	)
	if HasDurableState(dir) {
		base, files, gen, appl, err = openDurableBase(dir, cfg.Opts)
	} else {
		base, files, gen, err = persistSeed(dir, seed, cfg.Opts)
	}
	if err != nil {
		return nil, err
	}
	sweepOrphans(dir, files)

	m := NewMutable(base, cfg.Opts)
	m.dir = dir
	m.baseFiles = files
	m.storeGen = gen
	m.appliedSeq = appl

	log, err := wal.Open(filepath.Join(dir, walName), cfg.Sync, func(rec *wal.Record) error {
		if rec.Seq <= appl {
			return nil // already folded into the shard set
		}
		switch rec.Kind {
		case wal.KindAdd:
			m.addLocked(rec.Name, rec.Sents)
			m.replayedDocs++
		case wal.KindTombstone:
			if _, err := m.tombstoneLocked(rec.Name); err != nil {
				// A tombstone for a name with no live document means the
				// delete already took effect in the shard set; replay is
				// idempotent about it.
				if errors.Is(err, ErrNoDocument) {
					return nil
				}
				return err
			}
			m.replayedTombs++
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("koko: open wal in %s: %w", dir, err)
	}
	m.mu.Lock()
	m.wal = log
	m.recovery = time.Since(t0)
	m.sealLocked()
	m.mu.Unlock()
	return m, nil
}

// openDurableBase loads the manifest's shard set.
func openDurableBase(dir string, opts *Options) (*ShardedEngine, []string, uint64, uint64, error) {
	path := filepath.Join(dir, manifestName)
	m, err := readManifest(path)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	if m.Durable == nil {
		return nil, nil, 0, 0, fmt.Errorf("koko: manifest %s is not a durable manifest", path)
	}
	base, err := openShardSet(path, m, opts)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	return base, m.files(), m.Durable.Generation, m.Durable.WALApplied, nil
}

// persistSeed writes seed (nil = empty corpus) as generation 1: one store
// file per shard plus the manifest. A crash partway leaves no manifest, so
// the next open re-persists from the same seed and sweeps the leftovers.
func persistSeed(dir string, seed Querier, opts *Options) (*ShardedEngine, []string, uint64, error) {
	const gen = 1
	var engines []*Engine
	var specs []index.ShardSpec
	switch e := seed.(type) {
	case nil:
		engines = []*Engine{NewEngine(&Corpus{c: &index.Corpus{}}, opts)}
		specs = []index.ShardSpec{{}}
	case *Engine:
		engines = []*Engine{e}
		specs = []index.ShardSpec{singleSpec(e.corpus.c)}
	case *ShardedEngine:
		engines = e.shards
		specs = e.specs
	default:
		return nil, nil, 0, fmt.Errorf("koko: cannot persist a seed engine of type %T", seed)
	}
	files := make([]string, len(engines))
	for i, eng := range engines {
		files[i] = shardGenFile(gen, i)
		if err := saveStoreDurable(eng, filepath.Join(dir, files[i])); err != nil {
			return nil, nil, 0, fmt.Errorf("koko: persist seed shard %d: %w", i, err)
		}
	}
	if err := writeDurableManifest(dir, files, specs, gen, 0); err != nil {
		return nil, nil, 0, err
	}
	return newSharded(engines, specs), files, gen, nil
}

func singleSpec(c *index.Corpus) index.ShardSpec {
	return index.ShardSpec{
		LoDoc: 0, HiDoc: c.NumDocs(),
		FirstSID: 0, NumSents: c.NumSentences(),
		Tokens: countTokens(c),
	}
}

func countTokens(c *index.Corpus) int {
	n := 0
	for i := range c.Sentences {
		n += len(c.Sentences[i].Tokens)
	}
	return n
}

// saveStoreDurable persists one shard engine's store and fsyncs it — the
// file must be on disk before a manifest referencing it is swapped in.
func saveStoreDurable(eng *Engine, path string) error {
	if err := eng.Save(path); err != nil {
		return err
	}
	return fsyncFile(path)
}

// writeDurableManifest atomically swaps in the manifest of generation gen.
func writeDurableManifest(dir string, files []string, specs []index.ShardSpec, gen, applied uint64) error {
	m := newManifest(files, specs)
	m.Durable = &durableMeta{Generation: gen, WALApplied: applied}
	return writeManifest(filepath.Join(dir, manifestName), m)
}

// sweepOrphans removes generation shard files and temp files a crashed
// compaction (or seed persist) left behind — anything matching the
// generated name patterns that the live manifest does not reference. The
// manifest and WAL are never candidates.
func sweepOrphans(dir string, live []string) {
	ref := make(map[string]bool, len(live))
	for _, f := range live {
		ref[f] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || ref[name] || name == manifestName || name == walName {
			continue
		}
		genFile, _ := filepath.Match("gen*.shard*", name)
		tmpFile, _ := filepath.Match("*.tmp", name)
		if genFile || tmpFile {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

func fsyncFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

func fsyncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// fail runs the test-injected failpoint at a named durable-compaction
// stage; a non-nil return simulates a crash there (the caller abandons the
// compaction mid-flight, exactly like a killed process).
func (m *Mutable) fail(stage string) error {
	if m.failpoint == nil {
		return nil
	}
	if err := m.failpoint(stage); err != nil {
		return fmt.Errorf("koko: durable compaction aborted at %s: %w", stage, err)
	}
	return nil
}

// compactDurable is Compact for a durable corpus: fold the cut delta and
// every live tombstone into the persisted shard set, incrementally and
// crash-safely. Caller holds compactMu.
func (m *Mutable) compactDurable() (CompactionStats, error) {
	t0 := time.Now()

	// Cut under the writer lock: the delta prefix, the tombstones to fold,
	// and the WAL horizon. Appends happen under the same lock, so every
	// record with Seq <= cutSeq is exactly the state being folded.
	m.mu.Lock()
	n := m.delta.NumDocs()
	cutTombs := m.tombs
	if n == 0 && cutTombs.numDocs() == 0 {
		m.mu.Unlock()
		return CompactionStats{}, nil
	}
	base, ok := m.base.(*ShardedEngine)
	if !ok {
		m.mu.Unlock()
		return CompactionStats{}, fmt.Errorf("koko: durable base is %T, want *ShardedEngine", m.base)
	}
	rawBase := base.NumDocuments()
	sp := m.shardParallel
	cut := &index.Corpus{}
	m.delta.AppendTo(cut, 0, n)
	cutSeq := m.wal.LastSeq()
	gen := m.storeGen + 1
	oldFiles := append([]string(nil), m.baseFiles...)
	m.mu.Unlock()

	// Merge, shard by shard. A base shard with no tombstones in its doc
	// range is reused outright — same engine, same file, only its spec's
	// global offsets shift — so untouched shard files are never rewritten.
	var (
		engines  []*Engine
		specs    []index.ShardSpec
		files    []string
		obsolete []string // old files superseded by this generation
	)
	docOff, sidOff := 0, 0
	firstWrite := true
	writeShard := func(c *index.Corpus, slot int) error {
		eng := NewEngine(&Corpus{c: c}, m.opts)
		file := shardGenFile(gen, slot)
		if err := saveStoreDurable(eng, filepath.Join(m.dir, file)); err != nil {
			return err
		}
		if firstWrite {
			firstWrite = false
			if err := m.fail("mid-shard-write"); err != nil {
				return err
			}
		}
		engines = append(engines, eng)
		specs = append(specs, index.ShardSpec{
			LoDoc: docOff, HiDoc: docOff + c.NumDocs(),
			FirstSID: sidOff, NumSents: c.NumSentences(),
			Tokens: countTokens(c),
		})
		files = append(files, file)
		docOff += c.NumDocs()
		sidOff += c.NumSentences()
		return nil
	}
	for si, spec := range base.specs {
		dead := cutTombs.docsBefore(spec.HiDoc) - cutTombs.docsBefore(spec.LoDoc)
		if dead == 0 {
			specs = append(specs, index.ShardSpec{
				LoDoc: docOff, HiDoc: docOff + spec.NumDocs(),
				FirstSID: sidOff, NumSents: spec.NumSents,
				Tokens: spec.Tokens,
			})
			engines = append(engines, base.shards[si])
			files = append(files, oldFiles[si])
			docOff += spec.NumDocs()
			sidOff += spec.NumSents
			continue
		}
		obsolete = append(obsolete, oldFiles[si])
		src := base.shards[si].corpus.c
		c := &index.Corpus{}
		appendLiveRange(c, src, 0, src.NumDocs(), cutTombs, spec.LoDoc)
		if c.NumDocs() == 0 {
			continue // every document died; the shard vanishes
		}
		if err := writeShard(c, si); err != nil {
			return CompactionStats{}, err
		}
	}
	dc := &index.Corpus{}
	appendLiveRange(dc, cut, 0, cut.NumDocs(), cutTombs, rawBase)
	if dc.NumDocs() > 0 {
		if err := writeShard(dc, len(base.specs)); err != nil {
			return CompactionStats{}, err
		}
	}
	if len(engines) == 0 {
		// Everything was deleted. The manifest format requires at least one
		// shard, so persist a single empty one.
		if err := writeShard(&index.Corpus{}, 0); err != nil {
			return CompactionStats{}, err
		}
	}

	if err := m.fail("pre-manifest-swap"); err != nil {
		return CompactionStats{}, err
	}
	if err := writeDurableManifest(m.dir, files, specs, gen, cutSeq); err != nil {
		return CompactionStats{}, err
	}
	if err := m.fail("post-manifest-swap"); err != nil {
		return CompactionStats{}, err
	}

	newBase := newSharded(engines, specs)
	if sp > 0 {
		newBase.SetParallelism(sp)
	}
	m.mu.Lock()
	m.base = newBase
	m.delta = m.delta.Rebase(n)
	m.tombs = renumberTombs(m.tombs, cutTombs)
	renumberNames(m.names, cutTombs)
	m.baseFiles = files
	m.storeGen = gen
	m.appliedSeq = cutSeq
	m.compactions++
	m.swaps++
	m.sealLocked()
	m.mu.Unlock()
	stats := CompactionStats{
		Docs:       n,
		Sentences:  cut.NumSentences(),
		Tombstones: cutTombs.numDocs(),
		Shards:     newBase.NumShards(),
		Elapsed:    time.Since(t0),
	}

	if err := m.fail("pre-wal-truncate"); err != nil {
		return stats, err
	}
	// Both cleanups are safe to lose to a crash: replay filters the stale
	// WAL prefix by wal_applied, and the next open sweeps unreferenced
	// generation files.
	if err := m.wal.TruncatePrefix(cutSeq); err != nil {
		return stats, fmt.Errorf("koko: truncate wal after compaction: %w", err)
	}
	for _, f := range obsolete {
		os.Remove(filepath.Join(m.dir, f))
	}
	return stats, nil
}

// DurabilityStats reports a durable corpus's WAL, tombstone, and recovery
// counters (the zero value, with Durable false, for memory-only corpora —
// except TombstonesLive, which every Mutable tracks).
type DurabilityStats struct {
	Durable        bool
	Generation     uint64
	WALAppends     uint64
	WALBytes       int64
	ReplayedDocs   uint64
	ReplayedTombs  uint64
	TombstonesLive int
	Swaps          uint64
	Recovery       time.Duration
}

// Durability reports the corpus's durability counters.
func (m *Mutable) Durability() DurabilityStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	ds := DurabilityStats{TombstonesLive: m.tombs.numDocs()}
	if m.wal == nil {
		return ds
	}
	ds.Durable = true
	ds.Generation = m.storeGen
	ds.WALAppends = m.wal.Appends()
	ds.WALBytes = m.wal.Size()
	ds.ReplayedDocs = m.replayedDocs
	ds.ReplayedTombs = m.replayedTombs
	ds.Swaps = m.swaps
	ds.Recovery = m.recovery
	return ds
}

// Dir returns the corpus's durable directory ("" for memory-only corpora).
func (m *Mutable) Dir() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dir
}

// Close releases the WAL handle and stops its sync loop (memory-only
// corpora no-op). Mutations after Close fail; snapshots already handed out
// keep working. A compaction in flight finishes first: it uses the WAL
// outside mu (the post-swap prefix truncation), so Close takes compactMu to
// wait for it, and any later Compact sees the corpus closed.
func (m *Mutable) Close() error {
	m.compactMu.Lock()
	defer m.compactMu.Unlock()
	m.mu.Lock()
	w := m.wal
	m.wal = nil
	if w != nil {
		// Keep mutation paths failing cleanly rather than silently becoming
		// memory-only: with dir set but wal nil, durable writes are refused.
		m.closed = true
	}
	m.mu.Unlock()
	if w == nil {
		return nil
	}
	return w.Close()
}
