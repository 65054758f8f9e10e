package blockstore

import (
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/corpus"
	"repro/internal/koko/index"
	"repro/internal/nlp"
)

// entityTypes are the type names the entity-count checks ask for: every
// type the recognizer assigns, "Entity" (all of them) and "GPE" (Location's
// alias).
var entityTypes = []string{"Entity", "GPE", nlp.EntPerson, nlp.EntLocation, nlp.EntOrg, nlp.EntDate, nlp.EntOther}

// bruteEntityCounts counts, straight from the columns, each sentence's
// mentions that a variable of type etype binds (nlp.GPEAlias, as the
// evaluator matches them).
func bruteEntityCounts(c *index.Columns, etype string) (sids, counts []int32) {
	for sid := range c.NumSentences() {
		s := c.Sent(sid)
		n := int32(0)
		for _, typ := range s.EntType {
			if nlp.GPEAlias(etype, s.Dict.Str(typ)) {
				n++
			}
		}
		if n > 0 {
			sids = append(sids, int32(sid))
			counts = append(counts, n)
		}
	}
	return sids, counts
}

// checkEntityCounts fails unless ix's counts for every type equal the
// brute-force counts over c.
func checkEntityCounts(t *testing.T, label string, c *index.Columns, ix *index.Index) {
	t.Helper()
	for _, typ := range entityTypes {
		ws, wc := bruteEntityCounts(c, typ)
		gs, gc := ix.EntityCounts(typ)
		if !slices.Equal(ws, gs) || !slices.Equal(wc, gc) {
			t.Fatalf("%s: type %q counts\n got %v %v\nwant %v %v", label, typ, gs, gc, ws, wc)
		}
	}
}

// TestEntityCountsDifferential: the per-type mention counts DPLI prunes
// with equal a brute-force count over the columns, however the index was
// made — the heap build, a Delta fed document by document (every sealed
// view, including ones sealed before later documents arrived, and the
// delta after a Rebase), and the block-backed index reopened from a store
// of one shard and of three.
func TestEntityCountsDifferential(t *testing.T) {
	wiki, _ := corpus.GenWikipedia(120, 4)
	mentions := map[string]int{}
	for name, c := range map[string]*index.Corpus{
		"wiki":    wiki,
		"happydb": corpus.GenHappyDB(150, 2),
		"tests":   testCorpus(t),
		"mixed": index.NewCorpus(nil, []string{
			"He works for Acme Inc. downtown. Anna Smith flew to Tokyo in March 1990 with Bob Jones.",
			"Acme Inc hired Bob Jones in Paris. Blue Fox Coffee opened downtown. Globex Corp sued Acme Inc.",
			"Nothing happened.",
		}),
	} {
		t.Run(name, func(t *testing.T) {
			cols := index.ColumnsOf(c)
			heap := index.BuildColumns(cols)
			checkEntityCounts(t, "heap", cols, heap)
			for _, typ := range entityTypes {
				_, counts := heap.EntityCounts(typ)
				for _, n := range counts {
					mentions[typ] += int(n)
				}
			}

			d := index.NewDelta()
			type sealed struct {
				cols *index.Columns
				ix   *index.Index
			}
			var seals []sealed
			for doc := range c.NumDocs() {
				first, end := c.DocSentences(doc)
				d.AddDocument(c.Docs[doc].Name, c.Sentences[first:end])
				sc, six := d.Seal()
				checkEntityCounts(t, fmt.Sprintf("delta after doc %d", doc), sc, six)
				seals = append(seals, sealed{sc, six})
			}
			for i, s := range seals {
				checkEntityCounts(t, fmt.Sprintf("delta seal %d after every append", i), s.cols, s.ix)
			}
			rc, rix := d.Rebase(c.NumDocs() / 2).Seal()
			checkEntityCounts(t, "delta after Rebase", rc, rix)

			for _, k := range []int{1, 3} {
				var all [2][]int32
				for i, spec := range index.PartitionDocs(cols, k) {
					sc := index.ShardCorpus(cols, spec)
					path := filepath.Join(t.TempDir(), fmt.Sprintf("k%d.%d.koko", k, i))
					if err := WriteColumns(path, sc, index.BuildColumns(sc)); err != nil {
						t.Fatal(err)
					}
					r, err := Open(path)
					if err != nil {
						t.Fatal(err)
					}
					bix := r.NewIndex()
					checkEntityCounts(t, fmt.Sprintf("store K=%d shard %d", k, i), r.Columns(), bix)
					sids, counts := bix.EntityCounts("Entity")
					for _, sid := range sids {
						all[0] = append(all[0], sid+int32(spec.FirstSID))
					}
					all[1] = append(all[1], counts...)
					r.Close()
				}
				ws, wc := heap.EntityCounts("Entity")
				if !reflect.DeepEqual(all[0], ws) || !reflect.DeepEqual(all[1], wc) {
					t.Fatalf("store K=%d: shard counts, rebased, differ from the heap build's", k)
				}
			}
		})
	}
	for _, typ := range entityTypes {
		if mentions[typ] == 0 {
			t.Errorf("no corpus holds a %s mention; the check of that type is vacuous", typ)
		}
	}
}
