package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/koko/wal"
	"repro/koko"
)

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// durableService builds a service whose corpora persist under dir.
func durableService(t *testing.T, dir string) *Service {
	t.Helper()
	svc := NewService(Config{
		MaxConcurrent: 4,
		CacheSize:     -1,
		DataDir:       dir,
		WALSync:       wal.SyncAlways,
	})
	if err := RegisterDemoCorpora(svc.Registry(), 1); err != nil {
		t.Fatal(err)
	}
	return svc
}

func queryTuples(t *testing.T, svc *Service, corpus string) []TupleResult {
	t.Helper()
	resp, err := svc.Query(context.Background(), QueryRequest{Corpus: corpus, Query: DemoQueries[corpus], NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	return oracleTuples(resp.Tuples)
}

func sameTuples(t *testing.T, label string, got, want []TupleResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tuples, want %d", label, len(got), len(want))
	}
	for i := range want {
		a, b := got[i], want[i]
		if a.SentenceID != b.SentenceID || a.Document != b.Document || a.Values[0] != b.Values[0] {
			t.Fatalf("%s: tuple %d differs: %+v vs %+v", label, i, a, b)
		}
	}
}

// TestServiceDurableRestart: a service with a data dir survives being torn
// down and rebuilt — ingested documents come back via WAL replay, a deleted
// document stays deleted, and re-registering the demo seed does not reset
// the recovered state.
func TestServiceDurableRestart(t *testing.T) {
	dir := t.TempDir()
	svc := durableService(t, dir)

	if !koko.HasDurableState(filepath.Join(dir, "demo-cafes")) {
		t.Fatal("registration did not seed the durable directory")
	}
	info, err := svc.Registry().Info("demo-cafes")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Durable {
		t.Fatalf("corpus not marked durable: %+v", info)
	}

	if _, _, _, err := svc.Ingest("demo-cafes", "ladro.txt", "Cafe Ladro opened a new roastery downtown."); err != nil {
		t.Fatal(err)
	}
	// Re-ingesting the same name is an update, not a second document.
	info, _, updated, err := svc.Ingest("demo-cafes", "ladro.txt", "Cafe Ladro poured a perfect cortado.")
	if err != nil {
		t.Fatal(err)
	}
	if !updated {
		t.Fatal("re-ingest did not report an update")
	}
	if info.Documents != 3 {
		t.Fatalf("documents after upsert = %d, want 3", info.Documents)
	}
	if _, n, err := svc.DeleteDocument("demo-cafes", "portland.txt"); err != nil || n != 1 {
		t.Fatalf("delete portland.txt: n=%d err=%v", n, err)
	}
	if _, _, err := svc.DeleteDocument("demo-cafes", "nope.txt"); !errors.Is(err, koko.ErrNoDocument) {
		t.Fatalf("missing doc delete: %v", err)
	}
	want := queryTuples(t, svc, "demo-cafes")
	m := svc.Metrics()
	if m.WALAppends == 0 || m.WALBytes == 0 || m.DocumentDeletes != 1 || m.DocumentUpdates != 1 {
		t.Fatalf("durability metrics %+v", m)
	}
	if m.TombstonesLive == 0 {
		t.Fatalf("no live tombstones in metrics: %+v", m)
	}
	svc.Close()

	// "Restart": fresh service, same data dir, same registrations.
	svc2 := durableService(t, dir)
	defer svc2.Close()
	sameTuples(t, "after restart", queryTuples(t, svc2, "demo-cafes"), want)
	info, err = svc2.Registry().Info("demo-cafes")
	if err != nil {
		t.Fatal(err)
	}
	if info.Documents != 2 { // seattle + ladro; portland deleted
		t.Fatalf("documents after restart = %d, want 2", info.Documents)
	}
	m = svc2.Metrics()
	if m.WALReplayedDocs == 0 {
		t.Fatalf("restart replayed no documents: %+v", m)
	}

	// A durable corpus cannot be reloaded from a source file.
	if _, err := svc2.Reload("demo-cafes"); !errors.Is(err, ErrNotReloadable) {
		t.Fatalf("reload of durable corpus: %v", err)
	}

	// Compaction folds the WAL away; state still survives a restart.
	if _, _, err := svc2.Compact("demo-cafes"); err != nil {
		t.Fatal(err)
	}
	sameTuples(t, "after compact", queryTuples(t, svc2, "demo-cafes"), want)
	m = svc2.Metrics()
	if m.CompactionSwaps == 0 {
		t.Fatalf("no compaction swap recorded: %+v", m)
	}
	svc2.Close()

	svc3 := durableService(t, dir)
	defer svc3.Close()
	sameTuples(t, "after compact+restart", queryTuples(t, svc3, "demo-cafes"), want)
}

// TestServiceDurableCorpusDelete: DELETE of a durable corpus removes its
// on-disk state, so a restart does not resurrect it.
func TestServiceDurableCorpusDelete(t *testing.T) {
	dir := t.TempDir()
	svc := durableService(t, dir)
	if _, err := svc.DeleteCorpus("demo-food"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "demo-food")); !os.IsNotExist(err) {
		t.Fatalf("durable directory survived corpus delete: %v", err)
	}
	svc.Close()

	// Restart without registrations: only corpora with durable state on
	// disk come back.
	svc2 := NewService(Config{MaxConcurrent: 2, CacheSize: -1, DataDir: dir, WALSync: wal.SyncAlways})
	defer svc2.Close()
	recovered, err := svc2.Registry().LoadDurable()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0] != "demo-cafes" {
		t.Fatalf("recovered %v, want [demo-cafes]", recovered)
	}
	if _, _, err := svc2.Engine("demo-food"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted corpus resurrected: %v", err)
	}
	if len(queryTuples(t, svc2, "demo-cafes")) == 0 {
		t.Fatal("recovered corpus returns no tuples")
	}
}

// TestLoadDurableRefusesKOKOBS1: a durable corpus whose shard file is a
// first-format block store is not recovered, and LoadDurable's error names
// the format and the rebuild.
func TestLoadDurableRefusesKOKOBS1(t *testing.T) {
	dir := t.TempDir()
	durableService(t, dir).Close()
	shards, err := filepath.Glob(filepath.Join(dir, "demo-cafes", "gen*.shard*"))
	if err != nil || len(shards) == 0 {
		t.Fatalf("no demo-cafes shard files (err %v)", err)
	}
	for _, p := range shards {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		copy(raw, "KOKOBS1\n")
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	svc := NewService(Config{MaxConcurrent: 2, CacheSize: -1, DataDir: dir, WALSync: wal.SyncAlways})
	defer svc.Close()
	_, err = svc.Registry().LoadDurable()
	if err == nil {
		t.Fatal("LoadDurable recovered a corpus stored as KOKOBS1")
	}
	for _, want := range []string{"demo-cafes", "KOKOBS1", "koko index"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// TestHTTPDocumentDelete drives the document-delete route over real HTTP,
// including its 404 mapping for unknown documents.
func TestHTTPDocumentDelete(t *testing.T) {
	svc := NewService(Config{MaxConcurrent: 2, CacheSize: 32})
	if err := RegisterDemoCorpora(svc.Registry(), 2); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	del := func(path string) (*http.Response, error) {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ts.Client().Do(req)
	}

	resp, err := del("/v1/corpora/demo-cafes/documents/portland.txt")
	if err != nil {
		t.Fatal(err)
	}
	var dr DocumentDeleteResponse
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("document delete status %d", resp.StatusCode)
	}
	mustUnmarshal(t, readBody(t, resp), &dr)
	if dr.Deleted != 1 || dr.Document != "portland.txt" || dr.Corpus.Tombstones != 1 {
		t.Fatalf("delete response %+v", dr)
	}

	// The deleted document's tuples are gone from queries.
	var q queryJSON
	_, body := postJSON(t, ts, "/v1/query", QueryRequest{Corpus: "demo-cafes", Query: DemoQueries["demo-cafes"]})
	mustUnmarshal(t, body, &q)
	if hasValue(q.Tuples, "Cafe Umbria") {
		t.Fatalf("deleted document still visible: %+v", q.Tuples)
	}

	// Deleting again (or a bogus name) is a 404.
	for _, path := range []string{
		"/v1/corpora/demo-cafes/documents/portland.txt",
		"/v1/corpora/demo-cafes/documents/nope.txt",
		"/v1/corpora/nope/documents/portland.txt",
	} {
		resp, err := del(path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}
