package koko

import (
	"path/filepath"
	"testing"

	"repro/internal/corpus"
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
			if err := heap1.SaveAs(p1, FormatBlock); err != nil {
				t.Fatalf("SaveAs(FormatBlock): %v", err)
			}
			blk1, err := Load(p1, nil)
			if err != nil {
				t.Fatalf("Load block store: %v", err)
			}
			if blk1.ix.Source() == nil {
				t.Fatal("reloaded engine is not block-backed")
			}

			heap3 := NewShardedEngine(c, 3, nil)
			p3 := filepath.Join(dir, "k3.koko")
			if err := heap3.SaveAs(p3, FormatBlock); err != nil {
				t.Fatalf("ShardedEngine.SaveAs(FormatBlock): %v", err)
			}
			blk3, err := Open(p3, nil)
			if err != nil {
				t.Fatalf("Open block manifest: %v", err)
			}
			se, ok := blk3.(*ShardedEngine)
			if !ok {
				t.Fatalf("Open returned %T, want *ShardedEngine", blk3)
			}
			for i, s := range se.shards {
				if s.ix.Source() == nil {
					t.Fatalf("reloaded shard %d is not block-backed", i)
				}
			}

			for qi, src := range tc.queries {
				for _, plan := range []string{"on", "off"} {
					qo := &QueryOptions{Plan: plan}
					want1 := mustRun(t, heap1, src, qo)
					sameResults(t, tc.name+"/k1/plan-"+plan, want1, mustRun(t, blk1, src, qo))
					want3 := mustRun(t, heap3, src, qo)
					sameResults(t, tc.name+"/k3/plan-"+plan, want3, mustRun(t, blk3, src, qo))
					_ = qi
				}
			}
		})
	}
}

// TestStoreFormatConversion: row → block → row via Load + SaveAs preserves
// query results in both directions.
func TestStoreFormatConversion(t *testing.T) {
	tc := diffCases()[0]
	c := tc.corpus()
	ref := NewEngine(c, nil)
	src := tc.queries[0]
	want := mustRun(t, ref, src, nil)

	dir := t.TempDir()
	row1 := filepath.Join(dir, "a.koko")
	if err := ref.Save(row1); err != nil {
		t.Fatal(err)
	}
	e1, err := Load(row1, nil)
	if err != nil {
		t.Fatal(err)
	}
	blk := filepath.Join(dir, "b.koko")
	if err := e1.SaveAs(blk, FormatBlock); err != nil {
		t.Fatal(err)
	}
	e2, err := Load(blk, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "row->block", want, mustRun(t, e2, src, nil))

	// Block-backed engines rebuild a heap index to save row-wise.
	row2 := filepath.Join(dir, "c.koko")
	if err := e2.SaveAs(row2, FormatRow); err != nil {
		t.Fatal(err)
	}
	e3, err := Load(row2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e3.ix.Source() != nil {
		t.Fatal("row store reloaded as block-backed")
	}
	sameResults(t, "block->row", want, mustRun(t, e3, src, nil))
}

// TestBlockStoreTypedEntityQueries: typed-entity variables read the entity
// posting blocks, whose dictionary ids index store-wide tables. A corpus with
// more distinct entity texts than an entity block has bytes (Wikipedia: one
// new person per article) used to be rejected at decode time ("text id count
// 67 exceeds section size 66").
func TestBlockStoreTypedEntityQueries(t *testing.T) {
	wiki, _ := corpus.GenWikipedia(600, 5)
	c := WrapCorpus(wiki)
	heap := NewShardedEngine(c, 2, nil)
	path := filepath.Join(t.TempDir(), "wiki.koko")
	if err := heap.SaveAs(path, FormatBlock); err != nil {
		t.Fatalf("SaveAs(FormatBlock): %v", err)
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
