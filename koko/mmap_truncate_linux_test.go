//go:build linux

package koko

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/koko/index"
)

// TestBlockStoreTruncatedUnderReader: a block store truncated while a
// reader has it mapped makes the next query that touches the lost pages
// fail with a *index.StoreError naming the file, instead of killing the
// process with SIGBUS; a query on another store keeps working afterwards.
func TestBlockStoreTruncatedUnderReader(t *testing.T) {
	const src = `extract d:Str from "moments" if (/ROOT:{ v = //verb, o = v/dobj, d = (o.subtree) })`
	heap := NewEngine(WrapCorpus(corpus.GenHappyDB(300, 3)), nil)
	want := mustRun(t, heap, src, nil)
	if len(want.Tuples) == 0 {
		t.Fatal("query matched nothing; the surviving-store check is vacuous")
	}
	dir := t.TempDir()
	victim, other := filepath.Join(dir, "victim.koko"), filepath.Join(dir, "other.koko")
	for _, p := range []string{victim, other} {
		if err := heap.Save(p); err != nil {
			t.Fatal(err)
		}
	}
	cut, err := Open(victim, nil)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := Open(other, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The posting blob ends the file; cut it off whole, so every posting
	// block the query needs lies on pages past the new end of file.
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	blobLen := int64(binary.LittleEndian.Uint64(raw[24:32]))
	if err := os.Truncate(victim, int64(len(raw))-blobLen); err != nil {
		t.Fatal(err)
	}

	// The first query faults while decoding; the repeat and the two
	// concurrent ones must fault again rather than wait on the block the
	// first one never finished decoding.
	fault := func() error {
		done := make(chan error, 1)
		go func() {
			_, err := query(cut, src, nil)
			done <- err
		}()
		var err error
		select {
		case err = <-done:
		case <-time.After(30 * time.Second):
			return errors.New("query on a truncated store hung")
		}
		var se *index.StoreError
		if !errors.As(err, &se) {
			return fmt.Errorf("query on a truncated store: error %v (%T), want a *index.StoreError", err, err)
		}
		if se.Path != victim || !strings.Contains(err.Error(), "memory fault") {
			return fmt.Errorf("store error %q does not report a memory fault in %s", err, victim)
		}
		return nil
	}
	for _, label := range []string{"first query", "repeat query"} {
		if err := fault(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	errs := make(chan error, 2)
	for range 2 {
		go func() { errs <- fault() }()
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent query: %v", err)
		}
	}
	sameResults(t, "other store", want, mustRun(t, ok, src, nil))
}
