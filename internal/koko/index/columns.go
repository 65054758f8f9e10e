package index

import (
	"slices"
	"strings"
	"sync"

	"repro/internal/nlp"
)

// NoID is the id no dictionary string has: a query word absent from a
// shard resolves to it and so equals no token.
const NoID = ^uint32(0)

// Dictionary ids every Dict assigns first, so that code comparing tokens
// against these tags and labels needs no lookup.
const (
	IDPunct uint32 = iota // nlp.PosPunct
	IDVerb                // nlp.PosVerb
	IDConj                // nlp.LblConj (also the POS tag nlp.PosConj)
	IDRcmod               // nlp.LblRcmod
	IDXcomp               // nlp.LblXcomp
	IDNsubj               // nlp.LblNsubj
)

var fixedIDs = [...]string{nlp.PosPunct, nlp.PosVerb, nlp.LblConj, nlp.LblRcmod, nlp.LblXcomp, nlp.LblNsubj}

// Dict is a shard's string dictionary: every surface form, lowered form, POS
// tag, parse label and entity type its columns name, each once. Ids are
// dense and assigned in first-seen order. A Dict value is a prefix view:
// copying it (Columns.Seal) fixes the strings the copy sees, while the
// original keeps interning; lookups through the copy never return an id it
// cannot resolve. Only one goroutine may intern into a dictionary; any
// number may look up concurrently with it.
type Dict struct {
	strs []string
	ix   *dictIndex
}

type dictIndex struct {
	mu  sync.RWMutex
	ids map[string]uint32

	// posIDs and labelIDs map raw POS tags and parse labels to the ids of
	// their canonical forms, for the interning goroutine alone: the
	// parser's tags come from a closed set, so each distinct one is
	// normalised and interned once.
	posIDs, labelIDs map[string]uint32
}

func newDict() Dict {
	d := Dict{ix: &dictIndex{ids: make(map[string]uint32, 64)}}
	for _, s := range fixedIDs {
		d.Intern(s)
	}
	return d
}

// Len is the number of strings the dictionary holds.
func (d *Dict) Len() int { return len(d.strs) }

// Str returns the string of id.
func (d *Dict) Str(id uint32) string { return d.strs[id] }

// ID returns the id of s, or NoID when the dictionary does not hold it.
func (d *Dict) ID(s string) uint32 {
	d.ix.mu.RLock()
	id, ok := d.ix.ids[s]
	d.ix.mu.RUnlock()
	if !ok || int(id) >= len(d.strs) {
		return NoID
	}
	return id
}

// Intern returns the id of s, adding it when absent.
func (d *Dict) Intern(s string) uint32 {
	if id, ok := d.ix.ids[s]; ok { // the one interning goroutine reads unlocked
		return id
	}
	id := uint32(len(d.strs))
	d.strs = append(d.strs, s)
	d.ix.mu.Lock()
	d.ix.ids[s] = id
	d.ix.mu.Unlock()
	return id
}

// internTag returns the id of raw's canonical form under canon, through
// cache (one of the dictionary's tag caches).
func (d *Dict) internTag(cache *map[string]uint32, raw string, canon func(string) string) uint32 {
	if id, ok := (*cache)[raw]; ok {
		return id
	}
	if *cache == nil {
		*cache = map[string]uint32{}
	}
	id := d.Intern(canon(raw))
	(*cache)[raw] = id
	return id
}

// Columns is a shard's parsed text in pointer-free columns: one flat slice
// per token attribute, sentences and entities as offset ranges into them.
// Strings are ids into the shard's Dict. POS tags and parse labels are
// stored canonical (nlp.NormalizePOS, nlp.NormalizeLabel), so evaluation
// compares ids and never re-normalises. Token ids, heads and entity ids are
// sentence-local, as in nlp.Sentence. Sentence ids are dense from 0.
//
// Appending (AppendDoc, AppendDocsFrom) writes only beyond every length a
// Seal copy holds, so a sealed copy serves readers while the original
// grows, as Delta does.
type Columns struct {
	Dict Dict

	// Per token.
	Surface, Lower, POS, Label []uint32
	Head, Depth, SubL, SubR    []int32
	EntityID                   []int32 // index among the sentence's entities, or -1

	// Per sentence: tokens [TokOff[s], TokOff[s+1]), entities [EntOff[s],
	// EntOff[s+1]), and the root token (-1 for an empty sentence).
	TokOff, EntOff []int32
	Root           []int32

	// Per entity: its type and inclusive token span within its sentence.
	EntType    []uint32
	EntL, EntR []int32

	Docs      []DocMeta
	DocOfSent []int32 // sid -> doc index

	tree nlp.TreeScratch // AppendRawSentence's scratch
}

// NewColumns returns empty columns with a fresh dictionary.
func NewColumns() *Columns {
	return &Columns{Dict: newDict(), TokOff: []int32{0}, EntOff: []int32{0}}
}

// ColumnsOf converts a parsed corpus into columns — the one conversion from
// the parser's form to the served form.
func ColumnsOf(c *Corpus) *Columns {
	out := NewColumns()
	tokens, ents := 0, 0
	for i := range c.Sentences {
		tokens += len(c.Sentences[i].Tokens)
		ents += len(c.Sentences[i].Entities)
	}
	out.grow(tokens, len(c.Sentences), ents)
	for d := range c.Docs {
		first, end := c.DocSentences(d)
		out.AppendDoc(c.Docs[d].Name, c.Sentences[first:end])
	}
	return out
}

// grow reserves room for tokens, sentences and entities more.
func (c *Columns) grow(tokens, sents, ents int) {
	for _, col := range []*[]uint32{&c.Surface, &c.Lower, &c.POS, &c.Label} {
		*col = slices.Grow(*col, tokens)
	}
	for _, col := range []*[]int32{&c.Head, &c.Depth, &c.SubL, &c.SubR, &c.EntityID} {
		*col = slices.Grow(*col, tokens)
	}
	for _, col := range []*[]int32{&c.TokOff, &c.EntOff, &c.Root, &c.DocOfSent} {
		*col = slices.Grow(*col, sents)
	}
	c.EntType = slices.Grow(c.EntType, ents)
	c.EntL = slices.Grow(c.EntL, ents)
	c.EntR = slices.Grow(c.EntR, ents)
}

// SentOf converts one parsed sentence into columns of its own and returns
// its view, with the sentence's ID.
func SentOf(s *nlp.Sentence) Sent {
	c := NewColumns()
	c.appendSentence(s)
	v := c.Sent(0)
	v.ID = s.ID
	return v
}

// NumSentences returns the sentence count.
func (c *Columns) NumSentences() int { return len(c.Root) }

// NumDocs returns the document count.
func (c *Columns) NumDocs() int { return len(c.Docs) }

// NumTokens returns the token count.
func (c *Columns) NumTokens() int { return len(c.Surface) }

// DocSentences returns the sentence-id range [first, first+n) of document d.
func (c *Columns) DocSentences(d int) (int, int) {
	m := c.Docs[d]
	return m.FirstSID, m.FirstSID + m.NumSents
}

// AppendDoc appends a parsed document's sentences. sents is only read.
func (c *Columns) AppendDoc(name string, sents []nlp.Sentence) {
	first := c.NumSentences()
	for i := range sents {
		c.appendSentence(&sents[i])
	}
	c.EndDoc(name, first)
}

// EndDoc closes a document: the sentences from first on, appended since the
// previous document, become document name.
func (c *Columns) EndDoc(name string, first int) {
	doc := int32(len(c.Docs))
	for sid := first; sid < c.NumSentences(); sid++ {
		c.DocOfSent = append(c.DocOfSent, doc)
	}
	c.Docs = append(c.Docs, DocMeta{Name: name, FirstSID: first, NumSents: c.NumSentences() - first})
}

// appendSentence converts one sentence, trusting its derived geometry (the
// parser and every decoder leave it computed).
func (c *Columns) appendSentence(s *nlp.Sentence) {
	root := int32(-1)
	for i := range s.Tokens {
		t := &s.Tokens[i]
		id := c.Dict.Intern(t.Text)
		c.Surface = append(c.Surface, id)
		if t.Lower != t.Text {
			id = c.Dict.Intern(t.Lower)
		}
		c.Lower = append(c.Lower, id)
		c.POS = append(c.POS, c.Dict.internTag(&c.Dict.ix.posIDs, t.POS, nlp.NormalizePOS))
		c.Label = append(c.Label, c.Dict.internTag(&c.Dict.ix.labelIDs, t.Label, nlp.NormalizeLabel))
		c.Head = append(c.Head, int32(t.Head))
		c.Depth = append(c.Depth, int32(t.Depth))
		c.SubL = append(c.SubL, int32(t.SubL))
		c.SubR = append(c.SubR, int32(t.SubR))
		c.EntityID = append(c.EntityID, int32(t.EntityID))
		if t.Head < 0 && root < 0 {
			root = int32(i)
		}
	}
	for _, e := range s.Entities {
		c.EntType = append(c.EntType, c.Dict.Intern(e.Type))
		c.EntL = append(c.EntL, int32(e.L))
		c.EntR = append(c.EntR, int32(e.R))
	}
	c.endSentence(root)
}

func (c *Columns) endSentence(root int32) {
	c.TokOff = append(c.TokOff, int32(len(c.Surface)))
	c.EntOff = append(c.EntOff, int32(len(c.EntType)))
	c.Root = append(c.Root, root)
}

// AppendRawSentence appends a sentence from raw columns — surface, lowered,
// POS and label strings as ids of this Columns' dictionary (POS and label
// canonical), heads (-1 for the root), and entities — deriving the tree
// geometry and entity links the way nlp.Sentence.RecomputeDerived and the
// parser do. Decoders call it.
func (c *Columns) AppendRawSentence(surface, lower, pos, label []uint32, head []int32, ents []RawEntity) {
	t0 := len(c.Surface)
	c.Surface = append(c.Surface, surface...)
	c.Lower = append(c.Lower, lower...)
	c.POS = append(c.POS, pos...)
	c.Label = append(c.Label, label...)
	for range surface {
		c.EntityID = append(c.EntityID, -1)
	}
	c.Head = append(c.Head, head...)
	c.Depth = append(c.Depth, head...)
	c.SubL = append(c.SubL, head...)
	c.SubR = append(c.SubR, head...)
	root := c.tree.DeriveTree(c.Head[t0:], c.Depth[t0:], c.SubL[t0:], c.SubR[t0:])
	for ei, e := range ents {
		c.EntType = append(c.EntType, e.Type)
		c.EntL = append(c.EntL, e.L)
		c.EntR = append(c.EntR, e.R)
		for t := e.L; t <= e.R; t++ {
			c.EntityID[t0+int(t)] = int32(ei)
		}
	}
	c.endSentence(root)
}

// RawEntity is one entity of AppendRawSentence: a type id and an inclusive
// token span within the sentence.
type RawEntity struct {
	Type uint32
	L, R int32
}

// AppendDocsFrom copies documents [lo, hi) of src onto the end of c,
// renumbered to c's sentence ids and re-interned into c's dictionary. src is
// only read. This is how sharding and the compactor assemble columns.
func (c *Columns) AppendDocsFrom(src *Columns, lo, hi int) {
	xl := make([]uint32, src.Dict.Len())
	for i := range xl {
		xl[i] = NoID
	}
	id := func(s uint32) uint32 {
		if xl[s] == NoID {
			xl[s] = c.Dict.Intern(src.Dict.Str(s))
		}
		return xl[s]
	}
	if lo < hi {
		first, _ := src.DocSentences(lo)
		_, end := src.DocSentences(hi - 1)
		c.grow(int(src.TokOff[end]-src.TokOff[first]), end-first, int(src.EntOff[end]-src.EntOff[first]))
	}
	for d := lo; d < hi; d++ {
		first, end := src.DocSentences(d)
		t0, t1 := src.TokOff[first], src.TokOff[end]
		e0, e1 := src.EntOff[first], src.EntOff[end]
		for t := t0; t < t1; t++ {
			c.Surface = append(c.Surface, id(src.Surface[t]))
			c.Lower = append(c.Lower, id(src.Lower[t]))
			c.POS = append(c.POS, id(src.POS[t]))
			c.Label = append(c.Label, id(src.Label[t]))
		}
		c.Head = append(c.Head, src.Head[t0:t1]...)
		c.Depth = append(c.Depth, src.Depth[t0:t1]...)
		c.SubL = append(c.SubL, src.SubL[t0:t1]...)
		c.SubR = append(c.SubR, src.SubR[t0:t1]...)
		c.EntityID = append(c.EntityID, src.EntityID[t0:t1]...)
		for e := e0; e < e1; e++ {
			c.EntType = append(c.EntType, id(src.EntType[e]))
		}
		c.EntL = append(c.EntL, src.EntL[e0:e1]...)
		c.EntR = append(c.EntR, src.EntR[e0:e1]...)
		newFirst := c.NumSentences()
		for sid := first; sid < end; sid++ {
			c.TokOff = append(c.TokOff, c.TokOff[len(c.TokOff)-1]+src.TokOff[sid+1]-src.TokOff[sid])
			c.EntOff = append(c.EntOff, c.EntOff[len(c.EntOff)-1]+src.EntOff[sid+1]-src.EntOff[sid])
			c.Root = append(c.Root, src.Root[sid])
		}
		c.EndDoc(src.Docs[d].Name, newFirst)
	}
}

// Seal returns a read view of the columns as they are now: later appends to
// c never write anything the view can reach (see Columns).
func (c *Columns) Seal() *Columns {
	out := *c
	out.tree = nlp.TreeScratch{}
	return &out
}

// distinctEntityTexts counts the distinct lowered texts of the columns'
// entity mentions.
func (c *Columns) distinctEntityTexts() int {
	seen := map[string]struct{}{}
	var s Sent
	for sid := range c.NumSentences() {
		c.LoadSent(&s, sid)
		for e := range s.EntType {
			seen[strings.ToLower(s.Text(int(s.EntL[e]), int(s.EntR[e])))] = struct{}{}
		}
	}
	return len(seen)
}

// Sent returns the view of sentence sid.
func (c *Columns) Sent(sid int) Sent {
	var s Sent
	c.LoadSent(&s, sid)
	return s
}

// LoadSent writes the view of sentence sid into *s field by field: a Sent
// is large, so a slab of views is filled in place rather than by copying
// each one in.
func (c *Columns) LoadSent(s *Sent, sid int) {
	t0, t1 := c.TokOff[sid], c.TokOff[sid+1]
	e0, e1 := c.EntOff[sid], c.EntOff[sid+1]
	s.ID, s.Root = sid, int(c.Root[sid])
	s.Surface, s.Lower, s.POS, s.Label = c.Surface[t0:t1], c.Lower[t0:t1], c.POS[t0:t1], c.Label[t0:t1]
	s.Head, s.Depth, s.SubL, s.SubR = c.Head[t0:t1], c.Depth[t0:t1], c.SubL[t0:t1], c.SubR[t0:t1]
	s.EntityID = c.EntityID[t0:t1]
	s.EntType, s.EntL, s.EntR = c.EntType[e0:e1], c.EntL[e0:e1], c.EntR[e0:e1]
	s.Dict = &c.Dict
}

// Sent is one sentence of a Columns: subslices of its columns, so reading a
// sentence copies no token. Token ids, heads and entity ids are
// sentence-local. ID is the sentence id the engine reports.
type Sent struct {
	ID   int
	Root int

	Surface, Lower, POS, Label []uint32
	Head, Depth, SubL, SubR    []int32
	EntityID                   []int32

	EntType    []uint32
	EntL, EntR []int32

	Dict *Dict
}

// Len returns the token count.
func (s *Sent) Len() int { return len(s.Surface) }

// Text reconstructs the detokenized span [l,r] (inclusive) exactly as
// nlp.Sentence.Text does: punctuation attaches to the preceding token.
func (s *Sent) Text(l, r int) string {
	l, r = s.clip(l, r)
	size := 0
	for i := l; i <= r; i++ {
		size += len(s.Dict.strs[s.Surface[i]])
		if i > l && s.POS[i] != IDPunct {
			size++
		}
	}
	var b strings.Builder
	b.Grow(size)
	for i := l; i <= r; i++ {
		if i > l && s.POS[i] != IDPunct {
			b.WriteByte(' ')
		}
		b.WriteString(s.Dict.strs[s.Surface[i]])
	}
	return b.String()
}

// AppendText appends the span [l,r] to dst, rendered as Text renders it,
// so a caller rendering many spans can keep them in one buffer.
func (s *Sent) AppendText(dst []byte, l, r int) []byte {
	l, r = s.clip(l, r)
	for i := l; i <= r; i++ {
		if i > l && s.POS[i] != IDPunct {
			dst = append(dst, ' ')
		}
		dst = append(dst, s.Dict.strs[s.Surface[i]]...)
	}
	return dst
}

// clip bounds the span [l,r] to the sentence's tokens.
func (s *Sent) clip(l, r int) (int, int) {
	return max(l, 0), min(r, len(s.Surface)-1)
}

// String renders the whole sentence.
func (s *Sent) String() string {
	if len(s.Surface) == 0 {
		return ""
	}
	return s.Text(0, len(s.Surface)-1)
}

// IsAncestor reports whether token a is a strict ancestor of token d.
func (s *Sent) IsAncestor(a, d int) bool {
	if a == d {
		return false
	}
	for h := s.Head[d]; h >= 0; h = s.Head[h] {
		if int(h) == a {
			return true
		}
	}
	return false
}

// bfsOrder appends the sentence's token ids in breadth-first order from the
// root, each token's children in ascending id order (nlp.Sentence.Children's
// order), to dst. next is scratch of at least 2*Len entries.
func (s *Sent) bfsOrder(dst []int32, next []int32) []int32 {
	n := s.Len()
	if s.Root < 0 {
		return dst
	}
	first, sib := next[:n], next[n:2*n]
	for i := range first {
		first[i] = -1
	}
	for i := n - 1; i >= 0; i-- {
		if h := s.Head[i]; h >= 0 {
			sib[i], first[h] = first[h], int32(i)
		}
	}
	start := len(dst)
	dst = append(dst, int32(s.Root))
	for k := start; k < len(dst); k++ {
		for c := first[dst[k]]; c >= 0; c = sib[c] {
			dst = append(dst, c)
		}
	}
	return dst
}
