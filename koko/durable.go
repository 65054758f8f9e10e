package koko

// Durable corpora: a Mutable (MutableConfig.Dir set) whose mutations
// survive restarts. The lifecycle — ingest, delete, seal, compaction and
// its triggers — is the same for every corpus (mutable.go); this file holds
// only what durability adds to it.
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
// any query ever observed is reconstructible: opening the directory loads
// the manifest's shard set, then replays WAL records with Seq > wal_applied
// into a fresh delta — the post-restart snapshot is identical to the
// pre-crash one.
//
// Compaction runs the one incremental algorithm (Mutable.Compact) and makes
// it crash-safe: untouched base shards keep their files (the new manifest
// simply references the old-generation file, so the bytes and mtime never
// change); rebuilt and appended shards are written to new-generation files
// and fsynced; the manifest swap is write-temp + fsync + rename +
// fsync-dir; and only after the swap is the WAL prefix truncated — a crash
// at any point recovers to exactly the old or the new generation, never a
// torn mix. Orphaned new-generation files from a crashed compaction are
// swept on the next open.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

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

// DurableConfig is the corpus config under the name OpenDurable takes it.
type DurableConfig = MutableConfig

// HasDurableState reports whether dir already holds a durable corpus (its
// manifest exists) — callers then know a seed engine would be ignored.
func HasDurableState(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// OpenDurable is OpenMutable for a corpus that must be durable: cfg.Dir is
// required.
func OpenDurable(seed Querier, cfg DurableConfig) (*Mutable, error) {
	if cfg.Dir == "" {
		return nil, errors.New("koko: durable corpus needs a directory")
	}
	return OpenMutable(seed, cfg)
}

// openDurableDir opens (or creates) the durable corpus in dir: with a
// manifest present its shard set loads from disk and seed is ignored;
// otherwise seed becomes generation 1. Returns the base, its shard files,
// the generation, and the WAL horizon already folded into the shard set.
func openDurableDir(dir string, seed *Engine, opts *Options) (*Engine, []string, uint64, uint64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, 0, err
	}
	path := filepath.Join(dir, manifestName)
	if !HasDurableState(dir) {
		base, files, err := persistSeed(dir, seed)
		return base, files, 1, 0, err
	}
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
	sweepOrphans(dir, m.files())
	return base, m.files(), m.Durable.Generation, m.Durable.WALApplied, nil
}

// replay opens the WAL and applies every record past applied into the delta
// and tombstone set, counting what it replayed. Called once, from
// OpenMutable, before the corpus is shared.
func (m *Mutable) replay(applied uint64) error {
	log, err := wal.Open(filepath.Join(m.cfg.Dir, walName), m.cfg.Sync, func(rec *wal.Record) error {
		if rec.Seq <= applied {
			return nil // already folded into the shard set
		}
		switch rec.Kind {
		case wal.KindAdd:
			m.addLocked(rec.Name, rec.Sents)
			m.life.ReplayedDocs++
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
			m.life.ReplayedTombs++
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("koko: open wal in %s: %w", m.cfg.Dir, err)
	}
	m.wal = log
	return nil
}

// persistSeed writes seed as generation 1: one store file per shard plus
// the manifest. A crash partway leaves no manifest, so the next open
// re-persists from the same seed; the leftovers are swept first.
func persistSeed(dir string, se *Engine) (*Engine, []string, error) {
	sweepOrphans(dir, nil)
	files := make([]string, len(se.shards))
	for i, eng := range se.shards {
		files[i] = shardGenFile(1, i)
		if err := saveStoreDurable(eng, filepath.Join(dir, files[i])); err != nil {
			return nil, nil, fmt.Errorf("koko: persist seed shard %d: %w", i, err)
		}
	}
	if err := writeDurableManifest(dir, files, se.specs, 1, 0); err != nil {
		return nil, nil, err
	}
	return se, files, nil
}

// saveStoreDurable persists one shard's store and fsyncs it — the file
// must be on disk before a manifest referencing it is swapped in.
func saveStoreDurable(l *leaf, path string) error {
	if err := l.save(path); err != nil {
		return err
	}
	return fsync(path)
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

// fsync flushes a file or a directory (after a rename into it) to disk.
func fsync(path string) error {
	f, err := os.Open(path)
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
