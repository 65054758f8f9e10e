package koko

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/koko/index"
	"repro/internal/koko/index/blockstore"
)

// TestManifestRoundTrip: a written manifest reads back equal, sharded and
// durable alike, and lists exactly the files and specs it was given.
func TestManifestRoundTrip(t *testing.T) {
	specs := []index.ShardSpec{
		{LoDoc: 0, HiDoc: 3, FirstSID: 0, NumSents: 7, Tokens: 120},
		{LoDoc: 3, HiDoc: 5, FirstSID: 7, NumSents: 4, Tokens: 98},
	}
	files := []string{"c.koko.shard0", "c.koko.shard1"}
	dir := t.TempDir()
	for _, durable := range []*durableMeta{nil, {Generation: 3, WALApplied: 41}} {
		m := newManifest(files, specs)
		m.Durable = durable
		path := filepath.Join(dir, "c.koko")
		if err := writeManifest(path, m); err != nil {
			t.Fatal(err)
		}
		got, err := readManifest(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("read back %+v, want %+v", got, m)
		}
		if !reflect.DeepEqual(got.files(), files) || !reflect.DeepEqual(got.specs(), specs) {
			t.Fatalf("files %v specs %+v, want %v %+v", got.files(), got.specs(), files, specs)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("temp file left behind: %v", err)
		}
	}
}

// TestManifestValidation: the reader refuses every manifest that would open
// a file outside its directory or rebase tuples onto the wrong global ids.
func TestManifestValidation(t *testing.T) {
	good := func() manifest {
		return newManifest([]string{"a.shard0", "a.shard1"}, []index.ShardSpec{
			{LoDoc: 0, HiDoc: 2, FirstSID: 0, NumSents: 5, Tokens: 40},
			{LoDoc: 2, HiDoc: 3, FirstSID: 5, NumSents: 1, Tokens: 9},
		})
	}
	cases := []struct {
		name string
		edit func(m *manifest)
		want string
	}{
		{"ok", func(*manifest) {}, ""},
		{"version 0", func(m *manifest) { m.Version = 0 }, "unknown manifest version"},
		{"version 2", func(m *manifest) { m.Version = 2 }, "unknown manifest version"},
		{"no shards", func(m *manifest) { m.Shards = nil }, "no shards"},
		{"doc gap", func(m *manifest) { m.Shards[1].LoDoc, m.Shards[1].HiDoc = 3, 4 }, "starts at doc 3"},
		{"doc overlap", func(m *manifest) { m.Shards[1].LoDoc = 1 }, "starts at doc 1"},
		{"docs not from 0", func(m *manifest) { m.Shards[0].LoDoc = 1 }, "shard 0 starts at doc 1"},
		{"sid gap", func(m *manifest) { m.Shards[1].FirstSID = 6 }, "sentence 6"},
		{"sids not from 0", func(m *manifest) { m.Shards[0].FirstSID = 2 }, "sentence 2"},
		{"negative docs", func(m *manifest) { m.Shards[1].HiDoc = 1 }, "negative size"},
		{"negative sents", func(m *manifest) { m.Shards[1].NumSents = -1 }, "negative size"},
		{"parent dir", func(m *manifest) { m.Shards[0].File = "../x" }, "not a plain file name"},
		{"subdir", func(m *manifest) { m.Shards[0].File = "d/x" }, "not a plain file name"},
		{"absolute", func(m *manifest) { m.Shards[0].File = "/etc/passwd" }, "not a plain file name"},
		{"dotdot", func(m *manifest) { m.Shards[0].File = ".." }, "not a plain file name"},
		{"dot", func(m *manifest) { m.Shards[0].File = "." }, "not a plain file name"},
		{"empty", func(m *manifest) { m.Shards[0].File = "" }, "not a plain file name"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := good()
			tc.edit(&m)
			data, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			_, err = decodeManifest(data)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid manifest rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
			if err := writeManifest(filepath.Join(t.TempDir(), "m"), m); err == nil {
				t.Fatal("writer installed an invalid manifest")
			}
		})
	}
}

// TestOldFormatFailsCleanly: a KOKODB1 row-format file (the format before
// the block store became the only one) fed to each entry point returns an
// error naming the path, and OpenDurable leaves the directory untouched.
func TestOldFormatFailsCleanly(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "kokodb1.manifest"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(old), "KOKODB1\n") {
		t.Fatal("fixture is not a KOKODB1 file")
	}
	for _, tc := range []struct {
		name string
		open func(path string) error
	}{
		{"Load", func(path string) error { _, err := loadLeaf(path, nil); return err }},
		{"Open", func(path string) error { _, err := Open(path, nil); return err }},
		{"OpenDurable", func(path string) error {
			m, err := OpenDurable(nil, DurableConfig{Dir: filepath.Dir(path)})
			if err == nil {
				m.Close()
			}
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "MANIFEST")
			// The rest of an old data dir, plus names the orphan sweep would
			// delete if it ran.
			files := map[string][]byte{
				"MANIFEST":     old,
				"gen1.shard0":  old,
				"gen9.shard3":  []byte("KOKODB1\n"),
				"MANIFEST.tmp": []byte("partial"),
				"wal.log":      []byte("KOKOWAL1"),
			}
			past := time.Now().Add(-time.Hour).Truncate(time.Second)
			for name, data := range files {
				p := filepath.Join(dir, name)
				if err := os.WriteFile(p, data, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.Chtimes(p, past, past); err != nil {
					t.Fatal(err)
				}
			}
			err := tc.open(path)
			if err == nil || !strings.Contains(err.Error(), path) {
				t.Fatalf("error %v, want one naming %s", err, path)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != len(files) {
				t.Fatalf("directory now holds %d entries, want %d", len(entries), len(files))
			}
			for _, e := range entries {
				want, ok := files[e.Name()]
				got, err := os.ReadFile(filepath.Join(dir, e.Name()))
				if !ok || err != nil || string(got) != string(want) {
					t.Fatalf("%s added or rewritten (err %v)", e.Name(), err)
				}
				if st, err := e.Info(); err != nil || !st.ModTime().Equal(past) {
					t.Fatalf("%s touched", e.Name())
				}
			}
		})
	}
}

// TestKOKOBS1StoreRefusedByName: a store of the first block format (a
// file the previous format's koko index wrote) is refused by every entry
// point with an error that names the file and the format and says to
// rebuild it with koko index — as a plain store, re-sharded at open, and as
// a durable corpus's shard file.
func TestKOKOBS1StoreRefusedByName(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "kokobs1.koko"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(old), "KOKOBS1\n") {
		t.Fatal("fixture is not a KOKOBS1 file")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "old.koko")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	// A durable corpus whose generation's shard file is the old store.
	ddir := filepath.Join(dir, "durable")
	m, err := OpenDurable(NewEngine(NewCorpus(nil, []string{"Cafe Vita serves espresso."}), nil), DurableConfig{Dir: ddir})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	shards, err := filepath.Glob(filepath.Join(ddir, "gen*.shard*"))
	if err != nil || len(shards) == 0 {
		t.Fatalf("no shard files in %s (err %v)", ddir, err)
	}
	for _, p := range shards {
		if err := os.WriteFile(p, old, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name, file string
		open       func() error
	}{
		{"Open", path, func() error { _, err := Open(path, nil); return err }},
		{"OpenWithShards", path, func() error { _, err := OpenWithShards(path, nil, 3); return err }},
		{"OpenDurable", shards[0], func() error {
			m, err := OpenDurable(nil, DurableConfig{Dir: ddir})
			if err == nil {
				m.Close()
			}
			return err
		}},
	} {
		err := tc.open()
		if err == nil {
			t.Fatalf("%s: KOKOBS1 store opened", tc.name)
		}
		for _, want := range []string{tc.file, "KOKOBS1", "koko index"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name %q", tc.name, err, want)
			}
		}
	}
}

// requireBlockStores fails unless dir holds files matching pattern and
// every one is a KOKOBS2 block store.
func requireBlockStores(t *testing.T, dir, pattern string) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no %s files in %s (err %v)", pattern, dir, err)
	}
	for _, p := range paths {
		if !blockstore.IsBlockStore(p) {
			t.Fatalf("%s is not a block store", filepath.Base(p))
		}
	}
}

// FuzzManifest: the reader never panics, and every manifest it accepts
// re-encodes to bytes it reads back equal.
func FuzzManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("accepted manifest does not re-encode: %v", err)
		}
		back, err := decodeManifest(enc)
		if err != nil {
			t.Fatalf("re-encoded manifest rejected: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("round trip changed the manifest:\n%+v\n%+v", m, back)
		}
	})
}
