package engine_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/corpus"
	"repro/internal/koko/engine"
	"repro/internal/koko/index"
	"repro/internal/koko/index/blockstore"
	"repro/internal/koko/lang"
)

// lookupCorpus is one corpus of the decomposed-lookup differential: its
// heap index, the same index reopened from a block store, and the step
// inventories paths are drawn from.
type lookupCorpus struct {
	name              string
	heap, block       *index.Index
	labels, pos, word []string
}

// lookupCorpora builds GenHappyDB and GenWikipedia, each as a heap index
// and as a block store in tb's temporary directory.
func lookupCorpora(tb testing.TB) []*lookupCorpus {
	tb.Helper()
	wiki, _ := corpus.GenWikipedia(80, 3)
	var out []*lookupCorpus
	for _, c := range []struct {
		name string
		c    *index.Corpus
	}{{"happydb", corpus.GenHappyDB(300, 3)}, {"wiki", wiki}} {
		heap := index.Build(c.c)
		path := filepath.Join(tb.TempDir(), c.name+".koko")
		if err := blockstore.Write(path, c.c, heap); err != nil {
			tb.Fatal(err)
		}
		r, err := blockstore.Open(path)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { r.Close() })
		lc := &lookupCorpus{name: c.name, heap: heap, block: r.NewIndex()}
		lc.labels = distinct(heap.PL.Labels[1:])
		lc.pos = distinct(heap.POS.Labels[1:])
		for w := range heap.Word {
			lc.word = append(lc.word, w)
		}
		slices.Sort(lc.word)
		out = append(out, lc)
	}
	return out
}

func distinct(xs []string) []string {
	out := slices.Clone(xs)
	slices.Sort(out)
	return slices.Compact(out)
}

// choices reads a fuzz input as a stream of choices; an exhausted stream
// reads as zeros.
type choices []byte

func (b *choices) next(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

func pick[T any](b *choices, xs []T) T { return xs[b.next(len(xs))] }

// lookupCase decodes a fuzz input into a corpus, an ablation mode and a
// path of 1-4 steps mixing "/" and "//", each step a
// wildcard, parse label, POS tag or word with 0-2 text=/pos= conditions, all
// drawn from the corpus's own labels, tags and words.
func lookupCase(cs []*lookupCorpus, data []byte) (*lookupCorpus, engine.AblationMode, []lang.PathStep) {
	b := choices(data)
	lc := pick(&b, cs)
	bits := b.next(8)
	mode := engine.AblationMode{UsePL: bits&1 != 0, UsePOS: bits&2 != 0, UseWords: bits&4 != 0}
	steps := make([]lang.PathStep, 1+b.next(4))
	for i := range steps {
		st := lang.PathStep{Desc: b.next(2) == 1, Label: "*"}
		switch b.next(4) {
		case 1:
			st.Label = pick(&b, lc.labels)
		case 2:
			st.Label = pick(&b, lc.pos)
		case 3:
			st.Label = pick(&b, lc.word)
		}
		for k := b.next(3); k > 0; k-- {
			if b.next(2) == 0 {
				st.Conds = append(st.Conds, lang.LabelCond{Key: "text", Value: pick(&b, lc.word)})
			} else {
				st.Conds = append(st.Conds, lang.LabelCond{Key: "pos", Value: pick(&b, lc.pos)})
			}
		}
		steps[i] = st
	}
	return lc, mode, steps
}

// checkLookup compares lookupDecomposed over the heap index and over the
// block store with the frozen merge-join reference, posting for posting.
func checkLookup(t *testing.T, lc *lookupCorpus, mode engine.AblationMode, steps []lang.PathStep) {
	t.Helper()
	want, wantOK := engine.RefLookupDecomposed(lc.heap, steps, mode)
	for _, ix := range []struct {
		name string
		ix   *index.Index
	}{{"heap", lc.heap}, {"block", lc.block}} {
		got, ok := engine.LookupDecomposedMode(ix.ix, steps, mode)
		if ok != wantOK || len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("%s %s lookup %s (mode %+v): ok=%v %d postings, merge join ok=%v %d\n got %v\nwant %v",
				lc.name, ix.name, pathString(steps), mode, ok, len(got), wantOK, len(want), head(got), head(want))
		}
	}
}

func head(ps []index.Posting) []index.Posting { return ps[:min(len(ps), 8)] }

func pathString(steps []lang.PathStep) string {
	s := ""
	for _, st := range steps {
		if st.Desc {
			s += "//"
		} else {
			s += "/"
		}
		s += st.Label
		for _, c := range st.Conds {
			s += fmt.Sprintf("[%s=%q]", c.Key, c.Value)
		}
	}
	return s
}

// FuzzLookupDecomposed: the node-column lookup returns exactly the postings
// the frozen merge-join lookup (dpliref_test.go) does, for any path over
// the corpora's own vocabulary, in every ablation mode, over a heap index
// and a block store.
func FuzzLookupDecomposed(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 7, 1, 1, 3, 0, 1, 1, 9, 0},          // happydb, all indices: //,[pos="verb"]/*
		{1, 15, 2, 1, 3, 40, 0, 0, 2, 3},        // wiki, all indices: //1939/noun/*
		{0, 7, 0, 0, 0, 1, 0, 2, 1, 1, 5},       // happydb, all indices: /*[text="a"]
		{1, 4, 3, 1, 0, 0, 3, 9, 0, 1, 2, 0, 0}, // wiki, words only: //*//amod[text="."]/*/*
	} {
		f.Add(seed)
	}
	cs := lookupCorpora(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		lc, mode, steps := lookupCase(cs, data)
		checkLookup(t, lc, mode, steps)
	})
}

// TestLookupDecomposedShapes pins the shapes the benchmark queries take —
// no word, a word on the last step, a word above it, two words — against
// the merge-join reference in every ablation mode.
func TestLookupDecomposedShapes(t *testing.T) {
	desc := func(l string) lang.PathStep { return lang.PathStep{Desc: true, Label: l} }
	child := func(l string) lang.PathStep { return lang.PathStep{Label: l} }
	paths := [][]lang.PathStep{
		{desc("verb"), child("dobj")},
		{desc("verb"), child("nsubj")},
		{desc("verb"), {Label: "dobj", Conds: []lang.LabelCond{{Key: "text", Value: "cake"}}}},
		{desc("ate"), child("dobj")},
		{desc("called"), child("propn")},
		{desc("ate"), desc("cake")},
		{desc("verb"), {Desc: true, Label: "pobj", Conds: []lang.LabelCond{{Key: "text", Value: "chocolate"}}}},
		{child("root"), desc("*")},
		{desc("*"), child("*")},
		{child("*"), desc("noun")},
	}
	for _, lc := range lookupCorpora(t) {
		for _, p := range paths {
			for bits := range 8 {
				mode := engine.AblationMode{UsePL: bits&1 != 0, UsePOS: bits&2 != 0, UseWords: bits&4 != 0}
				checkLookup(t, lc, mode, p)
			}
		}
	}
}

// TestSidewaysDPLIKeepsCandidatesAndEstimates: the planned DPLI restricts
// later lookups to the running candidates, so its count tables hold fewer
// sentences — but its candidate set, every estimate at a candidate
// sentence, and every plan estimate equal the unrestricted written-order
// DPLI's.
func TestSidewaysDPLIKeepsCandidatesAndEstimates(t *testing.T) {
	queries := []string{
		`extract d:Str, s:Str from f if (/ROOT:{ v = //verb, o = v/dobj, d = (o.subtree), s = "i" + ^ + v + ^ + o })`,
		`extract e:Entity, d:Str from f if (/ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) } (b) in (e))`,
		`extract x:Str from f if (/ROOT:{ v = //verb, w = "the", x = v + ^[max=2] + w })`,
		`extract d:Str from f if (/ROOT:{ v = //"ate", o = v//"cake", d = (o.subtree) })`,
		`extract d:Str from f if (/ROOT:{ o = //"ate"/dobj, d = (o.subtree) })`,
		`extract s:Str from f if (/ROOT:{ v = //verb, o = v//pobj[text="chocolate"], s = v/nsubj })`,
		`extract b:Str from f if (/ROOT:{ v = //"called", p = v/propn, b = (p.subtree) })`,
		`extract a:Person, s:Str from f if (/ROOT:{ v = //verb, s = v/nsubj, w = "in" })`,
	}
	for _, lc := range lookupCorpora(t) {
		for _, ix := range []*index.Index{lc.heap, lc.block} {
			for _, src := range queries {
				want := engine.DPLIEstimates(ix, src, false)
				got := engine.DPLIEstimates(ix, src, true)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s: planned DPLI %+v\nwritten order %+v", lc.name, src, got, want)
				}
			}
		}
	}
}
