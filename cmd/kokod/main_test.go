package main

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/koko"
)

// TestFlagSet pins kokod's command line. A flag belongs here only when it
// is a deployment setting or the repository's own tools pass it; adding one
// means changing this list, so a new knob shows up in review.
func TestFlagSet(t *testing.T) {
	fs := flag.NewFlagSet("kokod", flag.ContinueOnError)
	registerFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{
		"addr", "compact-interval", "data-dir", "demo", "drain-timeout",
		"health-interval", "hedge-after", "load", "max-delta-docs", "pool",
		"replicas", "role", "shards", "store-cache-bytes", "wal-max-bytes",
		"wal-sync", "worker", "workers",
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("kokod flags = %v\nwant %v", got, want)
	}

	o := registerFlags(flag.NewFlagSet("kokod", flag.ContinueOnError))
	if o.addr != ":7333" || o.walSync != "batch" || o.role != "standalone" || o.replicas != 2 || o.shards != 1 {
		t.Errorf("defaults = %+v", o)
	}
}

// TestLoadDirectory: -load <dir> registers every *.koko store in the
// directory under its file name, and a named -load of a directory is
// refused.
func TestLoadDirectory(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"cafes", "food"} {
		c := koko.NewCorpus([]string{name + ".txt"}, []string{"Cafe Vita serves smooth espresso daily."})
		if err := koko.NewEngine(c, nil).Save(filepath.Join(dir, name+".koko")); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("not a store"), 0o644); err != nil {
		t.Fatal(err)
	}

	fs := flag.NewFlagSet("kokod", flag.ContinueOnError)
	o := registerFlags(fs)
	if err := fs.Parse([]string{"-load", dir}); err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry(nil)
	if err := loadCorpora(reg, o.loads); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, info := range reg.List() {
		names = append(names, info.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, []string{"cafes", "food"}) {
		t.Fatalf("-load %s registered %v, want [cafes food]", dir, names)
	}

	for _, spec := range []string{"x=" + dir, t.TempDir()} {
		err := loadCorpora(server.NewRegistry(nil), []string{spec})
		if err == nil || !strings.Contains(err.Error(), "-load") {
			t.Errorf("-load %s: err = %v, want a -load error", spec, err)
		}
	}
}
