package blockstore

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/koko/index"
)

// checkNodeColumns checks an index's node-id columns (the W table's
// plid/posid) against its hierarchy lists: every posting in node n's PL or
// POS list has PLID/POSID n and the quintuple of its token's columns, and
// the nodes' lists cover every token once.
func checkNodeColumns(t *testing.T, name string, ix *index.Index) {
	t.Helper()
	cols := ix.Columns()
	if len(ix.PLNode) != cols.NumTokens() || len(ix.POSNode) != cols.NumTokens() {
		t.Fatalf("%s: node columns hold %d/%d ids for %d tokens", name, len(ix.PLNode), len(ix.POSNode), cols.NumTokens())
	}
	for _, h := range []struct {
		alphabet string
		h        *index.Hierarchy
		id       func(sid, tid int32) int32
	}{{"PL", ix.PL, ix.PLID}, {"POS", ix.POS, ix.POSID}} {
		covered := 0
		for n := int32(1); n < int32(len(h.h.Children)); n++ {
			for _, p := range materialize(h.h.NodeList(n)) {
				if got := h.id(p.Sid, p.Tid); got != n {
					t.Fatalf("%s: token (%d,%d) is in %s node %d's list but has %s id %d", name, p.Sid, p.Tid, h.alphabet, n, h.alphabet, got)
				}
				tok := cols.TokOff[p.Sid] + p.Tid
				if want := (index.Posting{Sid: p.Sid, Tid: p.Tid, U: cols.SubL[tok], V: cols.SubR[tok], D: cols.Depth[tok]}); p != want {
					t.Fatalf("%s: %s node %d posting %+v, columns say %+v", name, h.alphabet, n, p, want)
				}
				covered++
			}
		}
		if covered != cols.NumTokens() {
			t.Fatalf("%s: %s node lists hold %d postings for %d tokens", name, h.alphabet, covered, cols.NumTokens())
		}
	}
}

// sameNodeIDs checks that two indexes over equal columns give every token
// the same PL and POS node ids.
func sameNodeIDs(t *testing.T, name string, want, got *index.Index) {
	t.Helper()
	cols := want.Columns()
	for sid := int32(0); sid < int32(cols.NumSentences()); sid++ {
		for tid := int32(0); tid < cols.TokOff[sid+1]-cols.TokOff[sid]; tid++ {
			if w, g := want.PLID(sid, tid), got.PLID(sid, tid); w != g {
				t.Fatalf("%s: token (%d,%d) PL id %d, want %d", name, sid, tid, g, w)
			}
			if w, g := want.POSID(sid, tid), got.POSID(sid, tid); w != g {
				t.Fatalf("%s: token (%d,%d) POS id %d, want %d", name, sid, tid, g, w)
			}
		}
	}
}

func openIndex(t *testing.T, path string, cols *index.Columns, ix *index.Index) *index.Index {
	t.Helper()
	if err := WriteColumns(path, cols, ix); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r.NewIndex()
}

// TestNodeColumnsParity: heap-built, store-opened, Delta-appended (read
// through a Seal taken before further appends) and compacted indexes all
// carry node-id columns that agree with their hierarchy lists, and a store
// reopened from a heap index gives every token the heap's ids.
func TestNodeColumnsParity(t *testing.T) {
	wiki, _ := corpus.GenWikipedia(150, 2)
	for _, c := range []struct {
		name string
		c    *index.Corpus
	}{{"happydb", corpus.GenHappyDB(400, 2)}, {"wiki", wiki}} {
		dir := t.TempDir()
		heap := index.Build(c.c)
		checkNodeColumns(t, c.name+" heap", heap)
		block := openIndex(t, filepath.Join(dir, "c.koko"), heap.Columns(), heap)
		checkNodeColumns(t, c.name+" store", block)
		sameNodeIDs(t, c.name+" store", heap, block)

		// Delta: seal after half the documents, append the rest, and check
		// the early seal and a final one.
		nd := c.c.NumDocs()
		d := index.NewDelta()
		add := func(lo, hi int) {
			for doc := lo; doc < hi; doc++ {
				first, end := c.c.DocSentences(doc)
				d.AddDocument(c.c.Docs[doc].Name, c.c.Sentences[first:end])
			}
		}
		add(0, nd/2)
		_, early := d.Seal()
		add(nd/2, nd)
		checkNodeColumns(t, c.name+" early seal", early)
		_, sealed := d.Seal()
		checkNodeColumns(t, c.name+" delta", sealed)
		sameNodeIDs(t, c.name+" delta", heap, sealed)

		// Compaction: the store's decoded first half plus a delta's second
		// half, rebuilt as the compactor does, and saved again.
		rest := index.NewDelta()
		for doc := nd / 2; doc < nd; doc++ {
			first, end := c.c.DocSentences(doc)
			rest.AddDocument(c.c.Docs[doc].Name, c.c.Sentences[first:end])
		}
		cut := index.NewColumns()
		cut.AppendDocsFrom(block.Columns(), 0, nd/2)
		rest.AppendTo(cut, 0, rest.NumDocs())
		compacted := index.BuildColumns(cut)
		checkNodeColumns(t, c.name+" compacted", compacted)
		sameNodeIDs(t, c.name+" compacted", heap, compacted)
		reopened := openIndex(t, filepath.Join(dir, "gen2.koko"), cut, compacted)
		checkNodeColumns(t, c.name+" compacted store", reopened)
		sameNodeIDs(t, c.name+" compacted store", compacted, reopened)
		if !reflect.DeepEqual(compacted.PLNode, reopened.PLNode) || !reflect.DeepEqual(compacted.POSNode, reopened.POSNode) {
			t.Fatalf("%s: compacted store's node columns differ from the heap build's", c.name)
		}
	}
}
