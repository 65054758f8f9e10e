package server

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/koko"
)

// CorpusInfo describes one registry entry.
type CorpusInfo struct {
	Name string `json:"name"`
	// Source is the .koko file the corpus was loaded from, or "" for
	// in-memory corpora.
	Source string `json:"source,omitempty"`
	// Generation identifies the snapshot the entry serves: it strictly
	// increases across the corpus's ingests, deletes, and compactions, and
	// across loads, reloads, and re-registrations under the same name, so
	// caches keyed on (name, generation) are implicitly invalidated by any
	// of them.
	Generation uint64 `json:"generation"`
	// Shards is how many doc-range shards serve this corpus, counting a
	// live delta as one extra shard.
	Shards    int       `json:"shards"`
	Documents int       `json:"documents"`
	Sentences int       `json:"sentences"`
	LoadedAt  time.Time `json:"loaded_at"`
	// DeltaDocs / DeltaSentences size the ingested-but-uncompacted delta;
	// Ingests and Compactions are the entry's lifetime counters.
	DeltaDocs      int    `json:"delta_docs"`
	DeltaSentences int    `json:"delta_sentences"`
	Ingests        uint64 `json:"ingests"`
	Compactions    uint64 `json:"compactions"`
	// Durable marks a corpus backed by an on-disk WAL + shard store;
	// StoreGeneration is its persisted shard set's generation (bumped by
	// every crash-safe compaction swap) and WALBytes the current log size —
	// the quantity the corpus's WAL-size compaction trigger watches.
	// Tombstones and Deletes track delete/update masking for every corpus,
	// durable or not.
	Durable         bool   `json:"durable,omitempty"`
	StoreGeneration uint64 `json:"store_generation,omitempty"`
	WALBytes        int64  `json:"wal_bytes,omitempty"`
	Tombstones      int    `json:"tombstones"`
	Deletes         uint64 `json:"deletes"`
	// Remote marks a corpus served by remote worker nodes through a
	// coordinator-side routing engine: queryable like any other entry, but
	// not ingestible, compactable, or reloadable here — its state lives on
	// the workers.
	Remote bool `json:"remote,omitempty"`
}

// Registry maps corpus names to corpora: a koko.Mutable, which owns its
// whole lifecycle, or a coordinator-side remote routing engine. It mirrors
// nothing — an entry's info and generation are derived from the corpus's
// published snapshot whenever asked, so readers never wait on a writer.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*regEntry
	// retired is the highest generation served under any entry removed or
	// replaced so far: a new entry's generations start above it.
	retired uint64
	// gone keeps the compaction counters of removed corpora, so the
	// service-wide sums never fall.
	gone koko.LifecycleStats
	// corpus is the config every local corpus opens with; install stamps
	// its Name and, with a data dir, its Dir.
	corpus koko.MutableConfig
	// dataDir != "" makes every corpus durable under dataDir/<name>.
	dataDir string
	// shards > 1 re-partitions plain stores into that many doc-range shards
	// at load time; sharded manifests keep their on-disk shard count.
	shards int
}

// regEntry is one registered corpus: a local corpus (mut) or a remote
// routing engine (mut nil), plus what the registry knows about it.
type regEntry struct {
	// dir is a local corpus's durable directory ("" if memory-only).
	name, source, dir string
	loadedAt          time.Time
	// offset is added to the corpus's seal sequence to give its generation.
	offset  uint64
	mut     *koko.Mutable
	routing koko.Querier
}

// NewRegistry creates an empty registry of memory-only corpora. opts (may
// be nil) is applied to every engine loaded from disk.
func NewRegistry(opts *koko.Options) *Registry {
	return newRegistry(koko.MutableConfig{Opts: opts}, "", 0)
}

func newRegistry(corpus koko.MutableConfig, dataDir string, shards int) *Registry {
	return &Registry{entries: map[string]*regEntry{}, corpus: corpus, dataDir: dataDir, shards: shards}
}

// view resolves the entry's read view and the info describing it, both
// from one snapshot.
func (e *regEntry) view() (koko.Querier, CorpusInfo) {
	if e.mut == nil {
		return e.routing, CorpusInfo{
			Name:       e.name,
			Source:     e.source,
			Generation: e.offset + 1,
			Shards:     e.routing.NumShards(),
			Documents:  e.routing.NumDocuments(),
			Sentences:  e.routing.NumSentences(),
			LoadedAt:   e.loadedAt,
			Remote:     true,
		}
	}
	snap := e.mut.Snapshot()
	return snap, e.info(snap)
}

// info describes one snapshot of a local entry's corpus.
func (e *regEntry) info(snap *koko.Snapshot) CorpusInfo {
	ls := snap.Lifecycle()
	return CorpusInfo{
		Name:            e.name,
		Source:          e.source,
		Generation:      e.offset + snap.Seq(),
		Shards:          snap.NumShards(),
		Documents:       snap.NumDocuments(),
		Sentences:       snap.NumSentences(),
		LoadedAt:        e.loadedAt,
		DeltaDocs:       snap.DeltaDocs(),
		DeltaSentences:  snap.DeltaSentences(),
		Ingests:         ls.Ingests,
		Compactions:     ls.Compactions,
		Durable:         ls.Durable,
		StoreGeneration: ls.Generation,
		WALBytes:        ls.WALBytes,
		Tombstones:      snap.Tombstones(),
		Deletes:         ls.Deletes,
	}
}

// durableDir resolves a corpus's durable directory ("" when durability is
// off), rejecting names that would escape the data dir.
func (r *Registry) durableDir(name string) (string, error) {
	if r.dataDir == "" {
		return "", nil
	}
	if name == "" || name == "." || name == ".." || strings.ContainsAny(name, `/\`) {
		return "", fmt.Errorf("corpus name %q is not usable as a durable directory", name)
	}
	return filepath.Join(r.dataDir, name), nil
}

// DefaultName derives a registry name from a .koko path: the base name
// without the extension ("/data/cafes.koko" -> "cafes").
func DefaultName(path string) string {
	return strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
}

// LoadFile loads a persisted store — a plain .koko file or a sharded
// manifest — and registers it under name (DefaultName(path) if name is "").
// With the service's Shards > 1, plain stores are re-partitioned into that
// many doc-range shards. An existing entry with the same name is replaced
// at a higher generation (any un-compacted delta documents of the old
// entry are discarded — reload means "what the file says"). When the corpus
// has durable state on disk, the durable state wins and the file is not
// even opened: the persisted shard set plus WAL replay reproduce the corpus
// as last served, including ingests and deletes the file never saw.
func (r *Registry) LoadFile(name, path string) error {
	if name == "" {
		name = DefaultName(path)
	}
	_, err := r.load(name, path)
	return err
}

// load opens path (unless durable state supersedes it) and installs it.
// Index loading is the slow part and happens outside the registry lock; a
// sharded corpus's whole shard set is assembled before install swaps it in
// — one atomic generation flip, never a mix.
func (r *Registry) load(name, path string) (CorpusInfo, error) {
	dir, err := r.durableDir(name)
	if err != nil {
		return CorpusInfo{}, fmt.Errorf("load corpus %q: %w", name, err)
	}
	var eng *koko.Engine
	if dir == "" || !koko.HasDurableState(dir) {
		if eng, err = koko.OpenWithShards(path, r.corpus.Opts, r.shards); err != nil {
			return CorpusInfo{}, fmt.Errorf("load corpus %q: %w", name, err)
		}
	}
	return r.install(name, path, eng)
}

// Register adds an in-memory engine — one shard or several — under name,
// replacing any existing entry at a higher generation. The engine becomes
// the base of a fresh, immediately ingestible corpus. With durability on,
// it seeds the corpus's durable directory on first registration; on later
// runs the recovered disk state wins. Delta engines and compacted shards
// are built with the registry's load options, so register engines built
// with the same options if the corpus will be ingested into.
func (r *Registry) Register(name string, eng *koko.Engine) error {
	_, err := r.install(name, "", eng)
	return err
}

// install opens a corpus over eng and swaps it in under name. The open
// happens outside the registry lock: for a durable corpus it persists the
// seed or replays the WAL (disk IO that must not block queries against
// other corpora).
func (r *Registry) install(name, source string, eng *koko.Engine) (CorpusInfo, error) {
	cfg := r.corpus
	cfg.Name = name
	dir, err := r.durableDir(name)
	if err != nil {
		return CorpusInfo{}, err
	}
	cfg.Dir = dir
	mut, err := koko.OpenMutable(eng, cfg)
	if err != nil {
		return CorpusInfo{}, fmt.Errorf("corpus %q: %w", name, err)
	}
	e := &regEntry{name: name, source: source, dir: dir, loadedAt: time.Now().UTC(), mut: mut}
	r.put(e)
	return e.info(mut.Snapshot()), nil
}

// RegisterRemote installs a coordinator-side remote engine under name,
// replacing any existing entry at a higher generation. The entry is
// query-only: no local corpus, no durable state — the workers own both.
// Its info fields that describe local lifecycle stay zero.
func (r *Registry) RegisterRemote(name, source string, eng koko.Querier) {
	r.put(&regEntry{name: name, source: source, loadedAt: time.Now().UTC(), routing: eng})
}

// put swaps e in under its name, its generations above every one served
// before. A replaced local corpus is closed — two writers appending to one
// WAL would corrupt it.
func (r *Registry) put(e *regEntry) {
	r.mu.Lock()
	old := r.entries[e.name]
	r.retireLocked(old)
	e.offset = r.retired
	r.entries[e.name] = e
	r.mu.Unlock()
	if old != nil && old.mut != nil {
		old.mut.Close()
	}
}

// retireLocked records what a removed or replaced entry leaves behind —
// the generation it last served and its compaction counters — and returns
// its final info. Caller holds r.mu.
func (r *Registry) retireLocked(e *regEntry) CorpusInfo {
	if e == nil {
		return CorpusInfo{}
	}
	_, info := e.view()
	r.retired = max(r.retired, info.Generation)
	if e.mut != nil {
		ls := e.mut.Snapshot().Lifecycle()
		r.gone.Compactions += ls.Compactions
		r.gone.CompactionErrors += ls.CompactionErrors
	}
	return info
}

// entry resolves a name to its entry.
func (r *Registry) entry(name string) (*regEntry, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	if !ok {
		return nil, fmt.Errorf("corpus %q: %w", name, ErrNotFound)
	}
	return e, nil
}

// local resolves a name to a local corpus's entry. Remote corpora have no
// local lifecycle: ingest, delete-document, and compact must happen on the
// workers that own the state.
func (r *Registry) local(name string) (*regEntry, error) {
	e, err := r.entry(name)
	if err == nil && e.mut == nil {
		err = fmt.Errorf("corpus %q is served by remote workers; mutate it there: %w", name, ErrRemoteCorpus)
	}
	return e, err
}

// describe reports snap's info if e still serves its name: a mutation that
// raced the corpus's removal or replacement answers ErrNotFound rather than
// a generation the name no longer serves.
func (r *Registry) describe(e *regEntry, snap *koko.Snapshot) (CorpusInfo, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.entries[e.name] != e {
		return CorpusInfo{}, fmt.Errorf("corpus %q: %w", e.name, ErrNotFound)
	}
	return e.info(snap), nil
}

// Delete unregisters a corpus. New queries, ingests, and job submissions
// against the name fail with ErrNotFound immediately; anything already
// holding the entry's snapshot (running jobs, in-flight queries) finishes
// on it undisturbed. A durable corpus's on-disk state — persisted shard
// files, manifest, and WAL — is removed too: delete means gone, not
// "resurrected at next restart".
func (r *Registry) Delete(name string) (CorpusInfo, error) {
	r.mu.Lock()
	e, ok := r.entries[name]
	if !ok {
		r.mu.Unlock()
		return CorpusInfo{}, fmt.Errorf("corpus %q: %w", name, ErrNotFound)
	}
	info := r.retireLocked(e)
	delete(r.entries, name)
	r.mu.Unlock()
	if e.mut == nil {
		// Remote entry: unregistering drops only the routing view; the
		// workers keep their state.
		return info, nil
	}
	// Close first (stops the corpus's timer, folds, and WAL), then remove
	// the directory.
	e.mut.Close()
	if e.dir != "" {
		if err := os.RemoveAll(e.dir); err != nil {
			return info, fmt.Errorf("delete corpus %q durable state: %w", name, err)
		}
	}
	return info, nil
}

// Reload re-reads a file-backed corpus from its source path and swaps it in
// at a higher generation. In-memory corpora cannot be reloaded.
// Un-compacted delta documents are discarded — the reloaded state is the
// file's.
func (r *Registry) Reload(name string) (CorpusInfo, error) {
	e, err := r.entry(name)
	if err != nil {
		return CorpusInfo{}, err
	}
	switch {
	case e.mut == nil:
		return CorpusInfo{}, fmt.Errorf("corpus %q is served by remote workers; reload it there: %w", name, ErrNotReloadable)
	case e.source == "":
		return CorpusInfo{}, fmt.Errorf("corpus %q is in-memory and cannot be reloaded: %w", name, ErrNotReloadable)
	case e.dir != "":
		// A durable corpus's authoritative state is its WAL + shard store,
		// not the source file; "reload from file" would silently discard
		// ingests and deletes that were durably acknowledged.
		return CorpusInfo{}, fmt.Errorf("corpus %q is durable; its state comes from the data dir, not the source file: %w", name, ErrNotReloadable)
	}
	return r.load(name, e.source)
}

// Engine resolves a corpus name to its current snapshot and generation
// without waiting on any writer. The snapshot is immutable: holding it is
// how jobs pin the corpus state they started on. It is loaded under the
// registry lock, so a corpus removed or replaced afterwards can never hand
// out a generation its successor serves.
func (r *Registry) Engine(name string) (koko.Querier, uint64, error) {
	eng, info, err := r.resolve(name)
	return eng, info.Generation, err
}

// resolve is Engine plus the info describing the same snapshot.
func (r *Registry) resolve(name string) (koko.Querier, CorpusInfo, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	if !ok {
		return nil, CorpusInfo{}, fmt.Errorf("corpus %q: %w", name, ErrNotFound)
	}
	eng, info := e.view()
	return eng, info, nil
}

// Info returns the metadata of one entry.
func (r *Registry) Info(name string) (CorpusInfo, error) {
	_, info, err := r.resolve(name)
	return info, err
}

// Describe returns one entry's info, aggregate index stats, and per-shard
// stats, all from the same snapshot even if an ingest or reload swaps the
// entry concurrently. The aggregate is derived from the per-shard stats —
// one index walk per shard, not two.
func (r *Registry) Describe(name string) (CorpusInfo, koko.IndexStats, []koko.ShardStat, error) {
	eng, info, err := r.resolve(name)
	if err != nil {
		return CorpusInfo{}, koko.IndexStats{}, nil, err
	}
	sh := eng.ShardStats()
	return info, koko.MergeShardStats(sh), sh, nil
}

// List returns all entries sorted by name. The order is deterministic so
// /v1/corpora output and startup logs are stable across runs.
func (r *Registry) List() []CorpusInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]CorpusInfo, 0, len(r.entries))
	for _, e := range r.entries {
		_, info := e.view()
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len reports the number of registered corpora.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// totals sums the lifecycle counters of every local corpus — compactions
// including those of corpora already removed — and their live delta
// documents and tombstones.
func (r *Registry) totals() (sum koko.LifecycleStats, deltaDocs, tombstones int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	sum = r.gone
	for _, e := range r.entries {
		if e.mut == nil {
			continue
		}
		snap := e.mut.Snapshot()
		ls := snap.Lifecycle()
		sum.Compactions += ls.Compactions
		sum.CompactionErrors += ls.CompactionErrors
		sum.Swaps += ls.Swaps
		sum.WALAppends += ls.WALAppends
		sum.WALBytes += ls.WALBytes
		sum.ReplayedDocs += ls.ReplayedDocs
		sum.Recovery += ls.Recovery
		deltaDocs += snap.DeltaDocs()
		tombstones += snap.Tombstones()
	}
	return sum, deltaDocs, tombstones
}

// LoadDurable recovers every durable corpus directory under the data dir
// that is not already registered, in name order. kokod calls it at startup
// after the explicit -load/-demo registrations, so corpora created
// purely through the API in a previous run come back after a restart.
// Returns the names recovered.
func (r *Registry) LoadDurable() ([]string, error) {
	if r.dataDir == "" {
		return nil, nil
	}
	dirents, err := os.ReadDir(r.dataDir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("scan data dir %s: %w", r.dataDir, err)
	}
	var recovered []string
	for _, de := range dirents { // sorted by name
		name := de.Name()
		if !de.IsDir() || !koko.HasDurableState(filepath.Join(r.dataDir, name)) {
			continue
		}
		if _, err := r.entry(name); err == nil {
			continue
		}
		// nil seed: the durable state is the corpus.
		if _, err := r.install(name, "", nil); err != nil {
			return recovered, fmt.Errorf("recover corpus %q: %w", name, err)
		}
		recovered = append(recovered, name)
	}
	return recovered, nil
}

// CloseAll closes every local corpus: compaction timers stop, folds in
// flight finish, and WAL handles close. The shutdown path: pending batched
// WAL writes are fsynced, so a clean stop loses nothing even under
// -wal-sync=batch.
func (r *Registry) CloseAll() {
	r.mu.Lock()
	muts := make([]*koko.Mutable, 0, len(r.entries))
	for _, e := range r.entries {
		if e.mut != nil {
			muts = append(muts, e.mut)
		}
	}
	r.mu.Unlock()
	for _, m := range muts {
		m.Close()
	}
}
