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

	// PLNode[t] and POSNode[t] are token t's node ids in the PL and POS
	// hierarchies — the W table's plid/posid columns — where t is a token
	// offset of the indexed columns (TokOff[sid]+tid). Every token of a
	// node's list has that node's id, so "token t is in the lookup of
	// hierarchy path P" reads as one column entry and a test against
	// LookupNodes(P). The super-root's id 0, which no path matches, stands
	// for a token whose path a block store's hierarchy lacks.
	PLNode, POSNode []int32

	// cols is the text the index covers: the columns the node ids align
	// with and the engine reads token geometry from.
	cols *Columns

	// src, when set, supplies all posting data lazily (the mmap block
	// store); the Word/Entity/ByType maps and hierarchy Postings slices are
	// empty and every lookup goes through src. Source-backed indexes are
	// immutable: nothing may be added to them.
	src PostingSource
}

// NewIndex returns an empty multi-index.
func NewIndex() *Index {
	return &Index{
		Word:   map[string][]Posting{},
		Entity: map[string][]EntityPosting{},
		ByType: map[string][]EntityPosting{},
		PL:     NewHierarchy(),
		POS:    NewHierarchy(),
	}
}

// NewBlockBacked assembles an index over cols whose posting data stays in
// src (blocks decoded lazily on lookup). The two hierarchies carry the
// merged dataguide structure (labels, depths, parents, children) but no
// resident posting lists; their lookups route through src as well. The
// node-id columns are filled here, once, by walking each sentence of cols
// down the hierarchies' children.
func NewBlockBacked(src PostingSource, cols *Columns, pl, pos *Hierarchy) *Index {
	pl.NodeSource = func(n int32) PostingList { return src.NodeList(HierPL, n) }
	pos.NodeSource = func(n int32) PostingList { return src.NodeList(HierPOS, n) }
	ix := &Index{
		Word:   map[string][]Posting{},
		Entity: map[string][]EntityPosting{},
		ByType: map[string][]EntityPosting{},
		PL:     pl,
		POS:    pos,
		cols:   cols,
		src:    src,
	}
	ix.PLNode, ix.POSNode = nodeColumns(cols, pl, cols.Label), nodeColumns(cols, pos, cols.POS)
	return ix
}

// nodeColumns walks every sentence of c down h's children by the labels
// column (c.Label or c.POS), parents before children, and returns each
// token's node id by token offset: the column a heap build appends as it
// merges (Index.PLNode, Index.POSNode). A token whose root path h lacks,
// and every token below it, gets the super-root's id 0.
func nodeColumns(c *Columns, h *Hierarchy, labels []uint32) []int32 {
	type edge struct {
		parent int32
		label  uint32 // id in c's dictionary
	}
	kids := make(map[edge]int32, len(h.Parents))
	for n := 1; n < len(h.Parents); n++ {
		if id := c.Dict.ID(h.Labels[n]); id != NoID {
			kids[edge{h.Parents[n], id}] = int32(n)
		}
	}
	nodes := make([]int32, c.NumTokens())
	var order, scratch []int32
	for sid := 0; sid < c.NumSentences(); sid++ {
		s := c.Sent(sid)
		if n := 2 * s.Len(); cap(scratch) < n {
			scratch = make([]int32, n)
		}
		order = s.bfsOrder(order[:0], scratch)
		t0 := c.TokOff[sid]
		for _, tid := range order {
			parent := int32(0)
			if hd := s.Head[tid]; hd >= 0 {
				if parent = nodes[t0+hd]; parent == 0 {
					continue
				}
			}
			nodes[t0+tid] = kids[edge{parent, labels[t0+tid]}]
		}
	}
	return nodes
}

// Source returns the lazy posting source backing this index, or nil for a
// heap-resident index.
func (ix *Index) Source() PostingSource { return ix.src }

// Columns returns the columns the index covers: its sentence ids and token
// offsets are theirs.
func (ix *Index) Columns() *Columns { return ix.cols }

// Build constructs the multi-index over a parsed corpus, through its
// columns.
func Build(c *Corpus) *Index { return BuildColumns(ColumnsOf(c)) }

// BuildColumns constructs the multi-index over a shard's columns.
func BuildColumns(c *Columns) *Index {
	ix := NewIndex()
	ix.cols = c
	ix.PLNode = make([]int32, 0, c.NumTokens())
	ix.POSNode = make([]int32, 0, c.NumTokens())
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
// keeps growing. This is the seal operation of the delta index; cols is
// the matching sealed view of the indexed columns.
func (ix *Index) Clone(cols *Columns) *Index {
	out := &Index{
		Word:    make(map[string][]Posting, len(ix.Word)),
		Entity:  make(map[string][]EntityPosting, len(ix.Entity)),
		ByType:  make(map[string][]EntityPosting, len(ix.ByType)),
		PL:      ix.PL.Clone(),
		POS:     ix.POS.Clone(),
		PLNode:  ix.PLNode,
		POSNode: ix.POSNode,
		cols:    cols,
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
// flushWords. s.ID must be its sentence id within the indexed columns, and
// every earlier sentence must already be added (the node-id columns grow in
// token order).
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
	ix.PLNode = ix.PL.addSentence(s, b.order, s.Label, ix.PLNode)
	ix.POSNode = ix.POS.addSentence(s, b.order, s.POS, ix.POSNode)
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
func (ix *Index) PLID(sid, tid int32) int32 { return ix.nodeID(ix.PLNode, sid, tid) }

// POSID returns the POS hierarchy node id of token (sid, tid), or -1.
func (ix *Index) POSID(sid, tid int32) int32 { return ix.nodeID(ix.POSNode, sid, tid) }

func (ix *Index) nodeID(col []int32, sid, tid int32) int32 {
	if ix.cols == nil || sid < 0 || int(sid) >= ix.cols.NumSentences() || tid < 0 {
		return -1
	}
	t := ix.cols.TokOff[sid] + tid
	if t >= ix.cols.TokOff[sid+1] || int(t) >= len(col) {
		return -1
	}
	return col[t]
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
