package index

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"unicode"
)

// materialize concatenates a possibly-lazy list's blocks into one slice.
func materialize(l PostingList) []Posting {
	if l == nil {
		return nil
	}
	var out []Posting
	for i := range l.NumBlocks() {
		out = append(out, l.Block(i)...)
	}
	return out
}

// lookupPostings is the materialized union of every hierarchy node whose
// root path matches p: the node lists concatenated, sorted and
// deduplicated, nil when empty.
func lookupPostings(h *Hierarchy, p Path) []Posting {
	var out []Posting
	for _, n := range h.LookupNodes(p) {
		out = append(out, materialize(h.NodeList(n))...)
	}
	SortPostings(out)
	return slices.Compact(out)
}

// paperCorpus builds the two-sentence corpus of the paper's Examples 3.1-3.3:
// sid 0 is the Figure 1 sentence, sid 1 the Anna sentence.
func paperCorpus() *Corpus {
	return NewCorpus(
		[]string{"doc0", "doc1"},
		[]string{
			"I ate a chocolate ice cream, which was delicious, and also ate a pie.",
			"Anna ate some delicious cheesecake that she bought at a grocery store.",
		},
	)
}

// TestExample32WordIndex pins the paper's Example 3.2 word-index rows.
func TestExample32WordIndex(t *testing.T) {
	ix := Build(paperCorpus())
	cases := map[string][]Posting{
		"i":         {{Sid: 0, Tid: 0, U: 0, V: 0, D: 1}},
		"ate":       {{Sid: 0, Tid: 1, U: 0, V: 16, D: 0}, {Sid: 0, Tid: 13, U: 12, V: 15, D: 1}, {Sid: 1, Tid: 1, U: 0, V: 12, D: 0}},
		"delicious": {{Sid: 0, Tid: 9, U: 9, V: 9, D: 3}, {Sid: 1, Tid: 3, U: 3, V: 3, D: 2}},
		"cream":     {{Sid: 0, Tid: 5, U: 2, V: 9, D: 1}},
	}
	for word, want := range cases {
		got := materialize(ix.WordList(word))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("word %q: postings %v, want %v", word, got, want)
		}
	}
	// The paper prints (1,1,0-12,0) before (0,1,0-16,0); our lists sort by
	// sid — the set is what matters, and it includes the second "ate" of
	// sentence 0, which the paper's excerpt elides.
}

// TestExample32EntityIndex pins the entity-index rows: each mention's
// (sid, u-v) and type, read from the columns that store it.
func TestExample32EntityIndex(t *testing.T) {
	ix := Build(paperCorpus())
	type row struct {
		sid, u, v int32
		typ       string
	}
	cases := map[string]row{
		"cheesecake":          {1, 4, 4, "Other"},
		"grocery store":       {1, 10, 11, "Location"},
		"chocolate ice cream": {0, 3, 5, "Other"},
	}
	got := map[string][]row{}
	cols := ix.Columns()
	for sid := range cols.NumSentences() {
		s := cols.Sent(sid)
		for e := range s.EntType {
			text := strings.ToLower(s.Text(int(s.EntL[e]), int(s.EntR[e])))
			got[text] = append(got[text], row{int32(sid), s.EntL[e], s.EntR[e], s.Dict.Str(s.EntType[e])})
		}
	}
	for text, want := range cases {
		if len(got[text]) != 1 || got[text][0] != want {
			t.Errorf("entity %q: %v, want [%v]", text, got[text], want)
		}
	}
	// Parent-child check from Example 3.2's discussion: ate(1,1) is the
	// parent of cheesecake's token via the quintuple arithmetic.
	ate := materialize(ix.WordList("ate"))[2] // (1,1,0-12,0)
	cheese := materialize(ix.WordList("cheesecake"))[0]
	if !ate.IsParentOf(cheese) {
		t.Errorf("IsParentOf(%v, %v) = false", ate, cheese)
	}
	if !ate.IsAncestorOf(cheese) {
		t.Error("IsAncestorOf false for parent")
	}
	if cheese.IsAncestorOf(ate) {
		t.Error("IsAncestorOf inverted")
	}
}

// TestExample33PLIndex pins the paper's Example 3.3 PL-index posting lists.
func TestExample33PLIndex(t *testing.T) {
	ix := Build(paperCorpus())
	childPath := func(labels ...string) Path {
		p := make(Path, len(labels))
		for i, l := range labels {
			p[i] = Step{Desc: false, Label: l}
		}
		return p
	}
	cases := []struct {
		path Path
		want []Posting
	}{
		{childPath("root"), []Posting{{0, 1, 0, 16, 0}, {1, 1, 0, 12, 0}}},
		{childPath("root", "nsubj"), []Posting{{0, 0, 0, 0, 1}, {1, 0, 0, 0, 1}}},
		{childPath("root", "dobj"), []Posting{{0, 5, 2, 9, 1}, {1, 4, 2, 11, 1}}},
		{childPath("root", "dobj", "det"), []Posting{{0, 2, 2, 2, 2}, {1, 2, 2, 2, 2}}},
		{childPath("root", "dobj", "amod"), []Posting{{1, 3, 3, 3, 2}}},
		{childPath("root", "dobj", "nn"), []Posting{{0, 3, 3, 3, 2}, {0, 4, 4, 4, 2}}},
	}
	for _, tc := range cases {
		got := lookupPostings(ix.PL, tc.path)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("PL lookup %v = %v, want %v", tc.path, got, tc.want)
		}
	}
	// Both nn nodes under dobj merged into one hierarchy node: the posting
	// list for /root/dobj/nn has 2 entries but the node count for that path
	// is 1.
	nodes := ix.PL.LookupNodes(childPath("root", "dobj", "nn"))
	if len(nodes) != 1 {
		t.Errorf("nn merged into %d nodes, want 1", len(nodes))
	}
}

func TestHierarchyDescendantAndWildcard(t *testing.T) {
	ix := Build(paperCorpus())
	// //dobj finds the two root-level dobj tokens (cream, cheesecake), the
	// pie dobj under the conj verb, and the relative pronoun "that" which is
	// the dobj of "bought" (Example 3.1).
	got := lookupPostings(ix.PL, Path{{Desc: true, Label: "dobj"}})
	if len(got) != 4 {
		t.Fatalf("//dobj = %v, want 4 postings", got)
	}
	// //*/dobj//* — the parse-label path decomposed from the paper's
	// Example 4.2 — matches everything below any dobj.
	got = lookupPostings(ix.PL, Path{{true, "*"}, {false, "dobj"}, {true, "*"}})
	if len(got) == 0 {
		t.Fatal("//*/dobj//* empty")
	}
	for _, p := range got {
		if p.D < 2 {
			t.Errorf("posting %v too shallow for //*/dobj//*", p)
		}
	}
	// POS index: //verb matches all verbs (ate, was, ate, ate, bought).
	verbs := lookupPostings(ix.POS, Path{{true, "verb"}})
	if len(verbs) != 5 {
		t.Errorf("//verb = %d postings, want 5 (%v)", len(verbs), verbs)
	}
	// Nonexistent label: empty, not panic.
	if got := lookupPostings(ix.PL, Path{{false, "nosuchlabel"}}); got != nil {
		t.Errorf("nosuchlabel = %v", got)
	}
}

func TestHierarchyCompression(t *testing.T) {
	// Many sentences with the same structure must merge into few nodes.
	texts := make([]string, 200)
	for i := range texts {
		texts[i] = "Anna ate some delicious cheesecake that she bought at a grocery store."
	}
	c := NewCorpus(nil, texts)
	ix := Build(c)
	st := ix.Stats()
	if st.PLCompression < 0.99 {
		t.Errorf("PL compression = %.4f, want > 0.99 (nodes=%d tokens=%d)",
			st.PLCompression, st.PLNodes, ix.PL.TotalTokens)
	}
	if st.POSCompression < 0.99 {
		t.Errorf("POS compression = %.4f, want > 0.99", st.POSCompression)
	}
}

// TestEntityCountsOfType pins the per-type mention counts DPLI prunes with:
// "Entity" counts every type, "GPE" aliases Location, an unknown type
// holds nothing.
func TestEntityCountsOfType(t *testing.T) {
	ix := Build(paperCorpus())
	for _, tc := range []struct {
		etype        string
		sids, counts []int32
	}{
		{"Entity", []int32{0, 1}, []int32{2, 3}}, // pie and chocolate ice cream; Anna, cheesecake, grocery store
		{"GPE", []int32{1}, []int32{1}},
		{"Location", []int32{1}, []int32{1}},
		{"Person", []int32{1}, []int32{1}},
		{"Nonexistent", nil, nil},
	} {
		sids, counts := ix.EntityCounts(tc.etype)
		if !reflect.DeepEqual(sids, tc.sids) || !reflect.DeepEqual(counts, tc.counts) {
			t.Errorf("%s: sids %v counts %v, want %v %v", tc.etype, sids, counts, tc.sids, tc.counts)
		}
	}
}

func TestPostingHelpers(t *testing.T) {
	u := []Posting{{Sid: 0, Tid: 1}, {Sid: 1, Tid: 5}, {Sid: 1, Tid: 7}, {Sid: 2, Tid: 0}}
	sids := SidsOf(u)
	if !reflect.DeepEqual(sids, []int32{0, 1, 2}) {
		t.Errorf("sids = %v", sids)
	}
	if got := IntersectSids([]int32{0, 1, 2}, []int32{1, 2, 3}); !reflect.DeepEqual(got, []int32{1, 2}) {
		t.Errorf("intersect = %v", got)
	}
}

// TestLowerIsAWordKey: WordList re-lowers its argument, and the engine
// probes it with Token.Lower (strings.ToLower of the token), so re-lowering
// must never change a lowered string — for every rune and for the
// replacement that invalid UTF-8 lowers to. The columns the engine reads a
// sentence from carry the same lowered text as the parse, non-ASCII
// capitals included.
func TestLowerIsAWordKey(t *testing.T) {
	for r := rune(0); r <= unicode.MaxRune; r++ {
		if l := strings.ToLower(string(r)); strings.ToLower(l) != l {
			t.Fatalf("ToLower(%q) = %q, which re-lowers to %q", string(r), l, strings.ToLower(l))
		}
	}
	if l := strings.ToLower("\xffÉ\xc3"); strings.ToLower(l) != l {
		t.Fatalf("invalid UTF-8 lowers to %q, which re-lowers to %q", l, strings.ToLower(l))
	}

	c := NewCorpus(nil, []string{"Über cafes served Éclairs and ÖL today."})
	s := ColumnsOf(c).Sent(0)
	ix := Build(c)
	for i, tok := range c.Sentence(0).Tokens {
		if got := s.Dict.Str(s.Lower[i]); got != tok.Lower || got != strings.ToLower(tok.Text) {
			t.Errorf("token %d %q: column Lower %q, parsed %q", i, tok.Text, got, tok.Lower)
		}
		if ListLen(ix.WordList(tok.Lower)) == 0 {
			t.Errorf("token %d %q: no word list under its Lower %q", i, tok.Text, tok.Lower)
		}
	}
}

func TestCorpusDocMapping(t *testing.T) {
	c := paperCorpus()
	if c.NumDocs() != 2 || c.NumSentences() != 2 {
		t.Fatalf("docs=%d sents=%d", c.NumDocs(), c.NumSentences())
	}
	if c.DocOfSent[0] != 0 || c.DocOfSent[1] != 1 {
		t.Errorf("DocOfSent = %v", c.DocOfSent)
	}
	first, end := c.DocSentences(1)
	if first != 1 || end != 2 {
		t.Errorf("DocSentences(1) = %d,%d", first, end)
	}
}
