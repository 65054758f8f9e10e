package index

import (
	"sort"
	"strings"

	"repro/internal/nlp"
)

// Index is KOKO's multi-index over a corpus: word and entity inverted
// indices plus the PL and POS hierarchy indices.
type Index struct {
	Word   map[string][]Posting       // lowercase word -> quintuples
	Entity map[string][]EntityPosting // lowercase entity text -> triples
	ByType map[string][]EntityPosting // entity type -> all mentions
	PL     *Hierarchy                 // parse-label hierarchy
	POS    *Hierarchy                 // POS-tag hierarchy

	// plidOf[sid][tid] / posidOf[sid][tid] are each token's node ids in the
	// hierarchy indices — the W table's plid/posid columns.
	plidOf  map[int32][]int32
	posidOf map[int32][]int32

	// src, when set, supplies all posting data lazily (the mmap block
	// store); the Word/Entity/ByType maps and hierarchy Postings slices are
	// empty and every lookup goes through src. Source-backed indexes are
	// immutable: nothing may be added to them.
	src PostingSource
}

// NewIndex returns an empty multi-index.
func NewIndex() *Index {
	return &Index{
		Word:    map[string][]Posting{},
		Entity:  map[string][]EntityPosting{},
		ByType:  map[string][]EntityPosting{},
		PL:      NewHierarchy(),
		POS:     NewHierarchy(),
		plidOf:  map[int32][]int32{},
		posidOf: map[int32][]int32{},
	}
}

// NewBlockBacked assembles an index whose posting data stays in src (blocks
// decoded lazily on lookup). The two hierarchies carry the merged dataguide
// structure (labels, depths, parents, children) but no resident posting
// lists; their lookups route through src as well. plid/posid columns are not
// materialized — PLID/POSID return -1 — which only the heap Save path needs.
func NewBlockBacked(src PostingSource, pl, pos *Hierarchy) *Index {
	pl.NodeSource = func(n int32) PostingList { return src.NodeList(HierPL, n) }
	pos.NodeSource = func(n int32) PostingList { return src.NodeList(HierPOS, n) }
	return &Index{
		Word:    map[string][]Posting{},
		Entity:  map[string][]EntityPosting{},
		ByType:  map[string][]EntityPosting{},
		PL:      pl,
		POS:     pos,
		plidOf:  map[int32][]int32{},
		posidOf: map[int32][]int32{},
		src:     src,
	}
}

// Source returns the lazy posting source backing this index, or nil for a
// heap-resident index.
func (ix *Index) Source() PostingSource { return ix.src }

// Build constructs the multi-index over a parsed corpus, through its
// columns.
func Build(c *Corpus) *Index { return BuildColumns(ColumnsOf(c)) }

// BuildColumns constructs the multi-index over a shard's columns.
func BuildColumns(c *Columns) *Index {
	ix := NewIndex()
	var b sentBuilder
	for sid := 0; sid < c.NumSentences(); sid++ {
		s := c.Sent(sid)
		b.add(ix, &s)
	}
	b.flushWords(ix, &c.Dict)
	ix.Finish()
	return ix
}

// Clone returns an immutable read view of the index: fresh maps and outer
// slices, shared posting data. Appending further sentences (with strictly
// larger sids) to the original never mutates anything a clone can reach —
// appends either land beyond every cloned slice's length or relocate the
// backing array — so clones serve concurrent readers while the original
// keeps growing. This is the seal operation of the delta index.
func (ix *Index) Clone() *Index {
	out := &Index{
		Word:    make(map[string][]Posting, len(ix.Word)),
		Entity:  make(map[string][]EntityPosting, len(ix.Entity)),
		ByType:  make(map[string][]EntityPosting, len(ix.ByType)),
		PL:      ix.PL.Clone(),
		POS:     ix.POS.Clone(),
		plidOf:  make(map[int32][]int32, len(ix.plidOf)),
		posidOf: make(map[int32][]int32, len(ix.posidOf)),
		src:     ix.src,
	}
	for k, v := range ix.Word {
		out.Word[k] = v
	}
	for k, v := range ix.Entity {
		out.Entity[k] = v
	}
	for k, v := range ix.ByType {
		out.ByType[k] = v
	}
	for k, v := range ix.plidOf {
		out.plidOf[k] = v
	}
	for k, v := range ix.posidOf {
		out.posidOf[k] = v
	}
	return out
}

// sentBuilder merges sentences into an index. Word postings collect in a
// slice indexed by lowered-word id and reach the index's word map at
// flushWords, once per touched word instead of twice per token; the
// hierarchy walk's scratch is kept across sentences.
type sentBuilder struct {
	order, scratch []int32
	words          [][]Posting // by lowered-word id: the word's whole list
	dirty          []bool      // by lowered-word id: grew since the last flush
	touched        []uint32    // the dirty ids
}

// add merges one sentence into the index; its word postings wait for
// flushWords. s.ID must be its sentence id within the indexed columns.
func (b *sentBuilder) add(ix *Index, s *Sent) {
	sid := int32(s.ID)
	if n := s.Dict.Len(); len(b.words) < n {
		b.words = append(b.words, make([][]Posting, n-len(b.words))...)
		b.dirty = append(b.dirty, make([]bool, n-len(b.dirty))...)
	}
	for i, w := range s.Lower {
		if !b.dirty[w] {
			b.dirty[w] = true
			b.touched = append(b.touched, w)
		}
		b.words[w] = append(b.words[w], Posting{Sid: sid, Tid: int32(i), U: s.SubL[i], V: s.SubR[i], D: s.Depth[i]})
	}
	for e := range s.EntType {
		typ := s.Dict.Str(s.EntType[e])
		text := s.Text(int(s.EntL[e]), int(s.EntR[e]))
		ep := EntityPosting{Sid: sid, U: s.EntL[e], V: s.EntR[e], Type: typ, Text: text}
		key := strings.ToLower(text)
		ix.Entity[key] = append(ix.Entity[key], ep)
		ix.ByType[typ] = append(ix.ByType[typ], ep)
	}
	if n := 2 * s.Len(); cap(b.scratch) < n {
		b.scratch = make([]int32, n)
	}
	b.order = s.bfsOrder(b.order[:0], b.scratch)
	ix.plidOf[sid] = ix.PL.addSentence(s, b.order, s.Label)
	ix.posidOf[sid] = ix.POS.addSentence(s, b.order, s.POS)
}

// flushWords publishes every word list that grew since the last flush to
// the index's word map.
func (b *sentBuilder) flushWords(ix *Index, d *Dict) {
	for _, w := range b.touched {
		ix.Word[d.Str(w)] = b.words[w]
		b.dirty[w] = false
	}
	b.touched = b.touched[:0]
}

// Finish sorts all posting lists; call once after the last sentence.
func (ix *Index) Finish() {
	for _, ps := range ix.Word {
		SortPostings(ps)
	}
	for _, es := range ix.Entity {
		SortEntityPostings(es)
	}
	for _, es := range ix.ByType {
		SortEntityPostings(es)
	}
	ix.PL.SortAllPostings()
	ix.POS.SortAllPostings()
}

// WordList returns the posting list of a word (case-insensitive) without
// forcing materialization: block-backed indexes hand back a lazy list whose
// blocks decode on first touch.
func (ix *Index) WordList(w string) PostingList {
	if ix.src != nil {
		return ix.src.WordList(strings.ToLower(w))
	}
	if ps := ix.Word[strings.ToLower(w)]; len(ps) > 0 {
		return SlicePostings(ps)
	}
	return nil
}

// EntitiesOfType returns all mentions whose type matches the requested type
// name ("Entity" matches every type; "GPE" aliases Location).
func (ix *Index) EntitiesOfType(want string) []EntityPosting {
	switch want {
	case "", "Entity", "entity", "Str":
		var types []string
		if ix.src != nil {
			types = ix.src.TypeNames()
		} else {
			types = make([]string, 0, len(ix.ByType))
			for t := range ix.ByType {
				types = append(types, t)
			}
			sort.Strings(types)
		}
		var out []EntityPosting
		for _, t := range types {
			out = append(out, ix.typeList(t)...)
		}
		SortEntityPostings(out)
		return out
	case "GPE", "gpe":
		return ix.typeList(nlp.EntLocation)
	}
	return ix.typeList(want)
}

func (ix *Index) typeList(t string) []EntityPosting {
	if ix.src != nil {
		return ix.src.TypeList(t)
	}
	return ix.ByType[t]
}

// PLID returns the PL hierarchy node id of token (sid, tid), or -1.
func (ix *Index) PLID(sid, tid int32) int32 {
	if ids, ok := ix.plidOf[sid]; ok && int(tid) < len(ids) {
		return ids[tid]
	}
	return -1
}

// POSID returns the POS hierarchy node id of token (sid, tid), or -1.
func (ix *Index) POSID(sid, tid int32) int32 {
	if ids, ok := ix.posidOf[sid]; ok && int(tid) < len(ids) {
		return ids[tid]
	}
	return -1
}

// Stats summarizes index shape for reports and tests.
type Stats struct {
	Words          int
	Entities       int
	PLNodes        int
	POSNodes       int
	PLCompression  float64
	POSCompression float64
	TotalPostings  int
}

// Stats returns summary statistics. For block-backed indexes the counts come
// from the store's directory — no posting blocks decode.
func (ix *Index) Stats() Stats {
	st := Stats{
		PLNodes:        ix.PL.NumNodes(),
		POSNodes:       ix.POS.NumNodes(),
		PLCompression:  ix.PL.CompressionRatio(),
		POSCompression: ix.POS.CompressionRatio(),
	}
	if ix.src != nil {
		ss := ix.src.SourceStats()
		st.Words = ss.Words
		st.Entities = ss.Entities
		st.TotalPostings = ss.TotalPostings
		return st
	}
	st.Words = len(ix.Word)
	st.Entities = len(ix.Entity)
	for _, ps := range ix.Word {
		st.TotalPostings += len(ps)
	}
	return st
}
