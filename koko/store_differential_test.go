package koko

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/koko/index"
)

// TestBlockStoreDifferential: the block store must be invisible to query
// semantics. Three generators × K ∈ {1,3} shards × planner on/off, each
// query answered by a heap engine (the reference) and by the same corpus
// persisted in block format and reopened — lazily decoding postings from
// the mmap'd store — with results compared field by field.
func TestBlockStoreDifferential(t *testing.T) {
	for _, tc := range diffCases() {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.corpus()
			dir := t.TempDir()

			heap1 := NewEngine(c, nil)
			p1 := filepath.Join(dir, "k1.koko")
			if err := heap1.Save(p1); err != nil {
				t.Fatalf("Save: %v", err)
			}
			blk1, err := Open(p1, nil)
			if err != nil {
				t.Fatalf("Open block store: %v", err)
			}
			if blk1.shards[0].ix.Source() == nil {
				t.Fatal("reloaded engine is not block-backed")
			}

			heap3 := NewShardedEngine(c, 3, nil)
			p3 := filepath.Join(dir, "k3.koko")
			if err := heap3.Save(p3); err != nil {
				t.Fatalf("Save: %v", err)
			}
			blk3, err := Open(p3, nil)
			if err != nil {
				t.Fatalf("Open block manifest: %v", err)
			}
			for i, s := range blk3.shards {
				if s.ix.Source() == nil {
					t.Fatalf("reloaded shard %d is not block-backed", i)
				}
			}

			for _, src := range tc.queries {
				for _, noPlan := range []bool{false, true} {
					qo := &QueryOptions{noPlan: noPlan}
					label := fmt.Sprintf("%s/noPlan=%t", tc.name, noPlan)
					want1 := mustRun(t, heap1, src, qo)
					sameResults(t, label+"/k1", want1, mustRun(t, blk1, src, qo))
					want3 := mustRun(t, heap3, src, qo)
					sameResults(t, label+"/k3", want3, mustRun(t, blk3, src, qo))
				}
			}
		})
	}
}

// TestBlockStoreNonASCIICapitals: a store lowers its reloaded tokens the
// way the parser does, so words with non-ASCII capitals answer a path step
// and the satisfying conditions that read token sequences (near, followed
// by, and a value's own mentions) exactly as the heap engine they were
// saved from.
func TestBlockStoreNonASCIICapitals(t *testing.T) {
	c := NewCorpus(nil, []string{
		"I ate Éclairs with my son. Über cafes served Éclairs today.",
		"Über cafes served Éclairs today. Ödön ate Éclairs at Über cafes.",
	})
	queries := []string{
		`extract x:Str from "c" if (/ROOT:{ x = //"éclairs" })`,
		`extract x:Str from "c" if (/ROOT:{ x = //verb }) satisfying x (x near "éclairs" {1}) with threshold 0.5`,
		`extract x:Str from "c" if (/ROOT:{ x = //verb }) satisfying x (x "éclairs" {1}) with threshold 0.5`,
		`extract x:Str from "c" if (/ROOT:{ v = //verb, x = v/dobj }) satisfying x (x near "über" {1}) with threshold 0.2`,
	}
	heap := NewEngine(c, nil)
	path := filepath.Join(t.TempDir(), "c.koko")
	if err := heap.Save(path); err != nil {
		t.Fatal(err)
	}
	blk, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for qi, src := range queries {
		want := mustRun(t, heap, src, nil)
		if len(want.Tuples) == 0 {
			t.Fatalf("query %d matched nothing on the heap engine: %s", qi, src)
		}
		sameResults(t, fmt.Sprintf("query %d", qi), want, mustRun(t, blk, src, nil))
	}
}

// TestBlockStoreCorruptNodeBlock: a damaged hierarchy-node block fails the
// query whose union walks it with a *index.StoreError, not a panic, and the
// same engine keeps answering queries that touch only undamaged lists.
func TestBlockStoreCorruptNodeBlock(t *testing.T) {
	const (
		unionQuery = `extract d:Str from "moments" if (/ROOT:{ v = //verb, o = v/dobj, d = (o.subtree) })`
		wordQuery  = `extract d:Str from "moments" if (/ROOT:{ v = //"ate", d = (v.subtree) })`
	)
	heap := NewEngine(WrapCorpus(corpus.GenHappyDB(300, 3)), nil)
	want := mustRun(t, heap, wordQuery, nil)
	if len(want.Tuples) == 0 {
		t.Fatal("word query matched nothing; the undamaged-list check is vacuous")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "ok.koko")
	if err := heap.Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The posting blob ends the file, and the POS node lists end the blob.
	// The union query reads only PL and POS node lists (no word list), so
	// a flipped blob byte that fails it lies in a node block. Walk back
	// from the end until one does.
	blobLen := int(binary.LittleEndian.Uint64(raw[24:32]))
	for off := len(raw) - 1; off >= len(raw)-blobLen; off -= 61 {
		bad := bytes.Clone(raw)
		bad[off] ^= 0xff
		p := filepath.Join(dir, fmt.Sprintf("bad-%d.koko", off))
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := Open(p, nil)
		if err != nil {
			t.Fatalf("Open with a damaged blob byte at %d: %v (want lazy failure)", off, err)
		}
		_, err = query(e, unionQuery, nil)
		if err == nil {
			continue
		}
		var se *index.StoreError
		if !errors.As(err, &se) {
			t.Fatalf("damaged node block: error %v (%T), want a *index.StoreError", err, err)
		}
		sameResults(t, "undamaged word list", want, mustRun(t, e, wordQuery, nil))
		return
	}
	t.Fatal("no damaged byte reached the //verb/dobj union")
}

// TestBlockStoreCorruptMentionBlock: a damaged word block that only the
// satisfying clause reads (through a value's mentions or a near argument)
// fails that query with a *index.StoreError during document evaluation,
// not a panic, while the same store still answers the extract alone.
func TestBlockStoreCorruptMentionBlock(t *testing.T) {
	const (
		extractQuery = `extract x:Str from "c" if (/ROOT:{ v = //verb, x = v/dobj })`
		nearQuery    = extractQuery + ` satisfying x (x near "delicious" {1}) with threshold 0.1`
	)
	heap := NewEngine(NewCorpus(nil, []string{
		"Anna ate delicious cake. The cake was delicious.",
		"Bob ate cake with delicious coffee.",
	}), nil)
	if len(mustRun(t, heap, nearQuery, nil).Tuples) == 0 {
		t.Fatal("near query matched nothing; the damaged-block check is vacuous")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "ok.koko")
	if err := heap.Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Word lists open the blob, which ends the file.
	blobLen := int(binary.LittleEndian.Uint64(raw[24:32]))
	for off := len(raw) - blobLen; off < len(raw); off++ {
		bad := bytes.Clone(raw)
		bad[off] ^= 0xff
		p := filepath.Join(dir, fmt.Sprintf("bad-%d.koko", off))
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := Open(p, nil)
		if err != nil {
			t.Fatalf("Open with a damaged blob byte at %d: %v (want lazy failure)", off, err)
		}
		if _, err := query(e, extractQuery, nil); err != nil {
			continue // the extract itself reads the damaged block
		}
		_, err = query(e, nearQuery, nil)
		if err == nil {
			continue
		}
		var se *index.StoreError
		if !errors.As(err, &se) {
			t.Fatalf("damaged word block: error %v (%T), want a *index.StoreError", err, err)
		}
		return
	}
	t.Fatal("no damaged byte reached a word block the satisfying clause reads")
}

// TestStoreFormatConversion: a block-backed engine re-saves by rebuilding a
// heap index from its corpus first (block → reload → Save → reload), and
// both reloads answer identically to the engine that wrote the first store.
func TestStoreFormatConversion(t *testing.T) {
	tc := diffCases()[0]
	c := tc.corpus()
	ref := NewEngine(c, nil)
	src := tc.queries[0]
	want := mustRun(t, ref, src, nil)

	dir := t.TempDir()
	blk1 := filepath.Join(dir, "a.koko")
	if err := ref.Save(blk1); err != nil {
		t.Fatal(err)
	}
	e1, err := Open(blk1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e1.shards[0].ix.Source() == nil {
		t.Fatal("reloaded engine is not block-backed")
	}
	sameResults(t, "block", want, mustRun(t, e1, src, nil))

	blk2 := filepath.Join(dir, "b.koko")
	if err := e1.Save(blk2); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(blk2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e2.shards[0].ix.Source() == nil {
		t.Fatal("re-saved store reloaded as heap-backed")
	}
	sameResults(t, "block->block", want, mustRun(t, e2, src, nil))
}

// TestBlockStoreTypedEntityQueries: typed-entity variables prune through
// the per-type mention counts a reopened store derives from its columns,
// and bind the columns' mentions, so a K=2 store answers as the heap
// engine does. A corpus with many distinct entity texts (Wikipedia: one
// new person per article) once broke the stored entity blocks' decode.
func TestBlockStoreTypedEntityQueries(t *testing.T) {
	wiki, _ := corpus.GenWikipedia(600, 5)
	c := WrapCorpus(wiki)
	heap := NewShardedEngine(c, 2, nil)
	path := filepath.Join(t.TempDir(), "wiki.koko")
	if err := heap.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	blk, err := Open(path, nil)
	if err != nil {
		t.Fatalf("Open block manifest: %v", err)
	}
	for _, src := range []string{
		`extract a:Person, b:Date from wiki.article if (/ROOT:{ v = //"born" } (v) in (v))`,
		`extract c:Entity from wiki.article if () satisfying c (c near "chocolate" {1}) or ("called" c {1}) with threshold 0.3`,
		`extract p:Person, g:GPE from wiki.article if (/ROOT:{ v = //verb, s = v/nsubj } (s) in (p))`,
	} {
		want := mustRun(t, heap, src, nil)
		if len(want.Tuples) == 0 {
			t.Fatalf("query matched nothing on the heap engine — test too weak:\n%s", src)
		}
		sameResults(t, "wiki/typed", want, mustRun(t, blk, src, nil))
	}
}
