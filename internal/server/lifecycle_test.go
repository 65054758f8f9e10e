package server

import (
	"path/filepath"
	"testing"

	"repro/koko"
)

// TestGenerationAcrossReplacement: deleting a corpus and registering it
// again, or replacing it through LoadFile, yields generations strictly
// above every one served before under the name — cache keys and
// shard-eval pinning rely on it.
func TestGenerationAcrossReplacement(t *testing.T) {
	svc := NewService(Config{CacheSize: -1})
	reg := svc.Registry()
	names, texts := shardTestTexts(4)
	path := filepath.Join(t.TempDir(), "c.koko")
	if err := koko.NewEngine(koko.NewCorpus(names, texts), nil).Save(path); err != nil {
		t.Fatal(err)
	}
	var served uint64
	serve := func(stage string) {
		t.Helper()
		_, gen, err := svc.Engine("c")
		if err != nil {
			t.Fatal(err)
		}
		if gen <= served {
			t.Fatalf("%s: generation %d, but %d was already served", stage, gen, served)
		}
		served = gen
	}
	mutate := func() {
		t.Helper()
		if _, _, _, err := svc.Ingest("c", "", "Cafe Ladro opened a new roastery downtown."); err != nil {
			t.Fatal(err)
		}
		serve("ingest")
		if _, _, err := svc.Compact("c"); err != nil {
			t.Fatal(err)
		}
		serve("compact")
	}

	if err := reg.Register("c", koko.NewEngine(koko.NewCorpus(names, texts), nil)); err != nil {
		t.Fatal(err)
	}
	serve("register")
	mutate()
	if _, err := svc.DeleteCorpus("c"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("c", koko.NewEngine(koko.NewCorpus(names, texts), nil)); err != nil {
		t.Fatal(err)
	}
	serve("re-register")
	mutate()
	if err := reg.LoadFile("c", path); err != nil {
		t.Fatal(err)
	}
	serve("LoadFile replacement")
	mutate()
	if _, err := svc.Reload("c"); err != nil {
		t.Fatal(err)
	}
	serve("reload")
}

// TestGenerationsAgreeAcrossServices: two fresh services that register the
// same corpora in the same order, and mutate them alike, report equal
// generations — what lets a coordinator pin workers that loaded the same
// data.
func TestGenerationsAgreeAcrossServices(t *testing.T) {
	var lists [2][]CorpusInfo
	for i := range lists {
		svc := NewService(Config{CacheSize: -1})
		if err := RegisterDemoCorpora(svc.Registry(), 2); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := svc.Ingest("demo-food", "", "Anna ate a delicious pie."); err != nil {
			t.Fatal(err)
		}
		lists[i] = svc.Registry().List()
	}
	if len(lists[0]) != 2 || len(lists[1]) != 2 {
		t.Fatalf("listings %+v / %+v", lists[0], lists[1])
	}
	for j := range lists[0] {
		a, b := lists[0][j], lists[1][j]
		if a.Name != b.Name || a.Generation != b.Generation {
			t.Fatalf("corpus %q at generation %d vs %q at %d", a.Name, a.Generation, b.Name, b.Generation)
		}
	}
}
