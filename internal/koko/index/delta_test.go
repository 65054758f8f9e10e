package index

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/nlp"
)

var deltaTexts = []string{
	"Cafe Vita serves smooth espresso daily. Cafe Juanita hired a champion barista.",
	"I ate a chocolate ice cream, which was delicious, and also ate a pie.",
	"Anna ate some delicious cheesecake that she bought at a grocery store.",
	"Cafe Umbria opened a second location. The baristas at Cafe Umbria won a latte art championship.",
	"The neighborhood bakery sells fresh bread and the barista waved.",
}

// copyDocSents extracts document d of src as renumberable sentence copies.
func copyDocSents(src *Corpus, d int) []nlp.Sentence {
	first, end := src.DocSentences(d)
	sents := make([]nlp.Sentence, end-first)
	copy(sents, src.Sentences[first:end])
	return sents
}

// TestDeltaIncrementalMatchesBuild: adding documents one at a time into the
// delta index must leave every posting list, hierarchy node, and token->node
// mapping identical to Build over the same corpus — the invariant that makes
// delta query results byte-identical to a from-scratch rebuild.
func TestDeltaIncrementalMatchesBuild(t *testing.T) {
	full := NewCorpus(nil, deltaTexts)
	want := Build(full)

	d := NewDelta()
	for doc := 0; doc < full.NumDocs(); doc++ {
		d.AddDocument(full.Docs[doc].Name, copyDocSents(full, doc))
	}
	if d.NumDocs() != full.NumDocs() || d.NumSents() != full.NumSentences() {
		t.Fatalf("delta shape %d docs/%d sents, want %d/%d",
			d.NumDocs(), d.NumSents(), full.NumDocs(), full.NumSentences())
	}
	_, got := d.Seal()

	if !reflect.DeepEqual(sortedKeys(want.Word), sortedKeys(got.Word)) {
		t.Fatalf("word vocabularies differ")
	}
	for w, ps := range want.Word {
		if !reflect.DeepEqual(ps, got.Word[w]) {
			t.Fatalf("word %q postings differ:\n got %v\nwant %v", w, got.Word[w], ps)
		}
	}
	for _, typ := range []string{"Entity", "GPE", nlp.EntPerson, nlp.EntLocation, nlp.EntOrg, nlp.EntDate, nlp.EntOther} {
		ws, wc := want.EntityCounts(typ)
		gs, gc := got.EntityCounts(typ)
		if !reflect.DeepEqual(ws, gs) || !reflect.DeepEqual(wc, gc) {
			t.Fatalf("entity type %q counts differ:\n got %v %v\nwant %v %v", typ, gs, gc, ws, wc)
		}
	}
	for _, h := range []struct {
		name       string
		want, got  *Hierarchy
		mapW, mapG []int32
	}{
		{"PL", want.PL, got.PL, want.PLNode, got.PLNode},
		{"POS", want.POS, got.POS, want.POSNode, got.POSNode},
	} {
		if !reflect.DeepEqual(h.want.Labels, h.got.Labels) ||
			!reflect.DeepEqual(h.want.Parents, h.got.Parents) {
			t.Fatalf("%s hierarchy skeleton differs", h.name)
		}
		for n := range h.want.Postings {
			if !reflect.DeepEqual(h.want.Postings[n], h.got.Postings[n]) {
				t.Fatalf("%s node %d postings differ:\n got %v\nwant %v",
					h.name, n, h.got.Postings[n], h.want.Postings[n])
			}
		}
		if !reflect.DeepEqual(h.mapW, h.mapG) {
			t.Fatalf("%s token->node map differs", h.name)
		}
	}
}

func sortedKeys(m map[string][]Posting) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestDeltaSealIsolation: a sealed view must be unaffected by later
// appends — counts, lookups, and hierarchy traversals all pinned. Run with
// -race: a reader hammers the sealed view while the writer keeps adding.
func TestDeltaSealIsolation(t *testing.T) {
	full := NewCorpus(nil, deltaTexts)
	d := NewDelta()
	d.AddDocument(full.Docs[0].Name, copyDocSents(full, 0))
	d.AddDocument(full.Docs[1].Name, copyDocSents(full, 1))
	sealedC, sealedIx := d.Seal()

	wantSents := sealedC.NumSentences()
	wantVita := len(materialize(sealedIx.WordList("cafe")))
	wantPL := len(lookupPostings(sealedIx.PL, Path{{Desc: true, Label: "*"}}))
	wantDict, wantCafe := sealedC.Dict.Len(), sealedC.Dict.ID("cafe")
	s0 := sealedC.Sent(0)
	wantText := s0.String()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Resolving query words and rendering text read the sealed
			// dictionary while the writer interns new words.
			s0 := sealedC.Sent(0)
			if sealedC.NumSentences() != wantSents ||
				sealedC.Dict.Len() != wantDict || sealedC.Dict.ID("cafe") != wantCafe ||
				sealedC.Dict.ID("bakery") != NoID || // interned only after the seal
				s0.String() != wantText ||
				len(materialize(sealedIx.WordList("cafe"))) != wantVita ||
				len(lookupPostings(sealedIx.PL, Path{{Desc: true, Label: "*"}})) != wantPL {
				panic("sealed view changed under reader")
			}
		}
	}()
	for doc := 2; doc < full.NumDocs(); doc++ {
		d.AddDocument(full.Docs[doc].Name, copyDocSents(full, doc))
	}
	close(stop)
	wg.Wait()

	if sealedC.NumSentences() != wantSents || len(materialize(sealedIx.WordList("cafe"))) != wantVita {
		t.Fatalf("sealed view drifted after appends")
	}
	if sealedC.Dict.Len() != wantDict || sealedC.Dict.ID("bakery") != NoID || d.c.Dict.ID("bakery") == NoID {
		t.Fatalf("sealed dictionary sees %d strings and bakery=%d; want %d and none", sealedC.Dict.Len(), sealedC.Dict.ID("bakery"), wantDict)
	}
	if d.NumDocs() != full.NumDocs() {
		t.Fatalf("delta lost documents: %d", d.NumDocs())
	}
}

// TestDeltaRebase: dropping the compacted prefix renumbers the surviving
// documents to delta-local ids identical to a fresh delta over them.
func TestDeltaRebase(t *testing.T) {
	full := NewCorpus(nil, deltaTexts)
	d := NewDelta()
	for doc := 0; doc < full.NumDocs(); doc++ {
		d.AddDocument(full.Docs[doc].Name, copyDocSents(full, doc))
	}
	got := d.Rebase(3)

	want := NewDelta()
	for doc := 3; doc < full.NumDocs(); doc++ {
		want.AddDocument(full.Docs[doc].Name, copyDocSents(full, doc))
	}
	if got.NumDocs() != want.NumDocs() || got.NumSents() != want.NumSents() {
		t.Fatalf("rebased shape %d/%d, want %d/%d", got.NumDocs(), got.NumSents(), want.NumDocs(), want.NumSents())
	}
	gc, gix := got.Seal()
	wc, wix := want.Seal()
	if !reflect.DeepEqual(gc.Docs, wc.Docs) {
		t.Fatalf("rebased doc metas differ: %v vs %v", gc.Docs, wc.Docs)
	}
	for sid := 0; sid < wc.NumSentences(); sid++ {
		g, w := gc.Sent(sid), wc.Sent(sid)
		if g.String() != w.String() || !reflect.DeepEqual(g.Head, w.Head) {
			t.Fatalf("sentence %d differs after rebase: %q vs %q", sid, g.String(), w.String())
		}
	}
	for w, ps := range wix.Word {
		if !reflect.DeepEqual(ps, gix.Word[w]) {
			t.Fatalf("rebased word %q postings differ", w)
		}
	}
	// AppendTo round-trips the prefix into plain columns.
	cut := NewColumns()
	d.AppendTo(cut, 0, 3)
	if cut.NumDocs() != 3 {
		t.Fatalf("AppendTo copied %d docs", cut.NumDocs())
	}
	for i := 0; i < 3; i++ {
		if cut.Docs[i].Name != full.Docs[i].Name {
			t.Fatalf("AppendTo doc %d name %q, want %q", i, cut.Docs[i].Name, full.Docs[i].Name)
		}
	}
}
