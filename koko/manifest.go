package koko

// Manifests: one small versioned JSON file naming a store's shard files.
//
// A multi-shard store (Engine.Save) and a durable corpus (the MANIFEST
// in its directory) both persist as a manifest plus one KOKOBS2 block store
// per shard. The manifest lists each shard's file, relative to the
// manifest's own directory so the layout is relocatable, with the doc-range
// spec that rebases the shard's local ids to global ones. A durable
// manifest also records the shard set's generation and WAL horizon.
//
//	{"version":1,
//	 "shards":[{"file":"c.koko.shard0","lo_doc":0,"hi_doc":3,"first_sid":0,"num_sents":7,"tokens":120}, ...],
//	 "durable":{"generation":2,"wal_applied":41}}

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/koko/index"
)

const manifestVersion = 1

// manifest is the decoded form of a manifest file. Read it with
// readManifest and write it with writeManifest, which validate and install
// it atomically.
type manifest struct {
	Version int             `json:"version"`
	Shards  []manifestShard `json:"shards"`
	// Durable is set only in a durable corpus's MANIFEST.
	Durable *durableMeta `json:"durable,omitempty"`
}

// manifestShard is one shard: its store file and its global ranges.
type manifestShard struct {
	File     string `json:"file"`
	LoDoc    int    `json:"lo_doc"`
	HiDoc    int    `json:"hi_doc"`
	FirstSID int    `json:"first_sid"`
	NumSents int    `json:"num_sents"`
	Tokens   int    `json:"tokens"`
}

// durableMeta is a durable corpus's state beyond its shard set: Generation
// is bumped by every compaction swap, and WALApplied is the highest WAL
// sequence already folded into the shard files (replay skips records at or
// below it).
type durableMeta struct {
	Generation uint64 `json:"generation"`
	WALApplied uint64 `json:"wal_applied"`
}

// newManifest pairs shard files with their specs.
func newManifest(files []string, specs []index.ShardSpec) manifest {
	m := manifest{Version: manifestVersion, Shards: make([]manifestShard, len(files))}
	for i, sp := range specs {
		m.Shards[i] = manifestShard{File: files[i], LoDoc: sp.LoDoc, HiDoc: sp.HiDoc,
			FirstSID: sp.FirstSID, NumSents: sp.NumSents, Tokens: sp.Tokens}
	}
	return m
}

func (m manifest) files() []string {
	out := make([]string, len(m.Shards))
	for i, s := range m.Shards {
		out[i] = s.File
	}
	return out
}

func (m manifest) specs() []index.ShardSpec {
	out := make([]index.ShardSpec, len(m.Shards))
	for i, s := range m.Shards {
		out[i] = index.ShardSpec{LoDoc: s.LoDoc, HiDoc: s.HiDoc,
			FirstSID: s.FirstSID, NumSents: s.NumSents, Tokens: s.Tokens}
	}
	return out
}

// validate rejects a manifest that would open the wrong files or rebase
// tuples onto the wrong global ids: an unknown version, no shards, a file
// name that is not a plain base name (so nothing outside the manifest's
// directory can be named), or doc and sentence ranges that do not tile
// [0, n) contiguously in shard order.
func (m manifest) validate() error {
	if m.Version != manifestVersion {
		return fmt.Errorf("unknown manifest version %d (want %d)", m.Version, manifestVersion)
	}
	if len(m.Shards) == 0 {
		return errors.New("manifest lists no shards")
	}
	doc, sid := 0, 0
	for i, s := range m.Shards {
		if s.File == "" || s.File == "." || s.File == ".." || filepath.Base(s.File) != s.File {
			return fmt.Errorf("shard %d file %q is not a plain file name", i, s.File)
		}
		if s.LoDoc != doc || s.FirstSID != sid {
			return fmt.Errorf("shard %d starts at doc %d, sentence %d; want %d, %d", i, s.LoDoc, s.FirstSID, doc, sid)
		}
		if s.HiDoc < s.LoDoc || s.NumSents < 0 || s.Tokens < 0 {
			return fmt.Errorf("shard %d has a negative size", i)
		}
		doc, sid = s.HiDoc, s.FirstSID+s.NumSents
	}
	return nil
}

// decodeManifest parses and validates manifest bytes.
func decodeManifest(data []byte) (manifest, error) {
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return manifest{}, fmt.Errorf("not a block store or JSON manifest: %w", err)
	}
	if err := m.validate(); err != nil {
		return manifest{}, err
	}
	return m, nil
}

// readManifest reads and validates the manifest at path.
func readManifest(path string) (manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return manifest{}, err
	}
	m, err := decodeManifest(data)
	if err != nil {
		return manifest{}, fmt.Errorf("koko: %s: %w", path, err)
	}
	return m, nil
}

// writeManifest atomically installs m at path: write a temp file, fsync,
// rename over path, fsync the directory. Readers see either the old
// manifest or the new one, never a partial write.
func writeManifest(path string, m manifest) error {
	if err := m.validate(); err != nil {
		return fmt.Errorf("koko: manifest %s: %w", path, err)
	}
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if err := fsync(tmp); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return fsync(filepath.Dir(path))
}
