package index

import (
	"slices"
	"strings"

	"repro/internal/nlp"
)

// Index is KOKO's multi-index over a corpus: the word inverted index, the
// PL and POS hierarchy indices, and per entity type the sentences holding
// its mentions. The mentions themselves are read from the columns.
type Index struct {
	Word map[string][]Posting // lowercase word -> quintuples
	PL   *Hierarchy           // parse-label hierarchy
	POS  *Hierarchy           // POS-tag hierarchy

	// PLNode[t] and POSNode[t] are token t's node ids in the PL and POS
	// hierarchies — the W table's plid/posid columns — where t is a token
	// offset of the indexed columns (TokOff[sid]+tid). Every token of a
	// node's list has that node's id, so "token t is in the lookup of
	// hierarchy path P" reads as one column entry and a test against
	// LookupNodes(P). The super-root's id 0, which no path matches, stands
	// for a token whose path a block store's hierarchy lacks.
	PLNode, POSNode []int32

	// ents counts each entity type's mentions per sentence of cols.
	ents entityTable

	// cols is the text the index covers: the columns the node ids align
	// with and the engine reads token geometry from.
	cols *Columns

	// src, when set, supplies all posting data lazily (the mmap block
	// store); the Word map and hierarchy Postings slices are empty and
	// every lookup goes through src. Source-backed indexes are immutable:
	// nothing may be added to them.
	src PostingSource
}

// NewIndex returns an empty multi-index.
func NewIndex() *Index {
	return &Index{
		Word: map[string][]Posting{},
		PL:   NewHierarchy(),
		POS:  NewHierarchy(),
	}
}

// NewBlockBacked assembles an index over cols whose posting data stays in
// src (blocks decoded lazily on lookup). The two hierarchies carry the
// merged dataguide structure (labels, depths, parents, children) but no
// resident posting lists; their lookups route through src as well. The
// node-id columns and the entity table are filled here, once, from cols:
// each sentence is walked down the hierarchies' children, and its
// mentions are counted by type.
func NewBlockBacked(src PostingSource, cols *Columns, pl, pos *Hierarchy) *Index {
	pl.NodeSource = func(n int32) PostingList { return src.NodeList(HierPL, n) }
	pos.NodeSource = func(n int32) PostingList { return src.NodeList(HierPOS, n) }
	ix := &Index{
		Word: map[string][]Posting{},
		PL:   pl,
		POS:  pos,
		cols: cols,
		src:  src,
	}
	ix.PLNode, ix.POSNode = nodeColumns(cols, pl, cols.Label), nodeColumns(cols, pos, cols.POS)
	for sid := range cols.NumSentences() {
		ix.ents.add(int32(sid), cols.EntType[cols.EntOff[sid]:cols.EntOff[sid+1]])
	}
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
		PL:      ix.PL.Clone(),
		POS:     ix.POS.Clone(),
		PLNode:  ix.PLNode,
		POSNode: ix.POSNode,
		ents:    ix.ents.clone(),
		cols:    cols,
		src:     ix.src,
	}
	for k, v := range ix.Word {
		out.Word[k] = v
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
	ix.ents.add(sid, s.EntType)
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

// EntityCounts returns, for the entity type etype, the ascending ids of
// the sentences holding its mentions and, at the same positions, how many
// they hold. "Entity" (or "") counts every type and "GPE" aliases
// Location, as nlp.GPEAlias matches them. The slices are the index's own:
// callers must not write to them.
func (ix *Index) EntityCounts(etype string) (sids, counts []int32) {
	switch etype {
	case "", "Entity", "entity":
		return ix.ents.all.sids, ix.ents.all.counts
	case "GPE", "gpe":
		etype = nlp.EntLocation
	}
	if k := slices.Index(ix.ents.types, ix.cols.Dict.ID(etype)); k >= 0 {
		return ix.ents.byType[k].sids, ix.ents.byType[k].counts
	}
	return nil, nil
}

// sidCounts is one entity type's column of the table: ascending sentence
// ids and each one's mention count.
type sidCounts struct {
	sids, counts []int32
}

// entityTable counts entity mentions per sentence, by type (types holds
// dictionary ids, byType their counts) and over all types.
type entityTable struct {
	all    sidCounts
	types  []uint32
	byType []sidCounts
}

// add counts the mentions of sentence sid, whose types are the dictionary
// ids types. Sentences arrive in ascending sid order, so a count is only
// ever appended or, for a sentence's further mentions, incremented at the
// entry the same sentence appended: nothing a clone holds is written.
func (t *entityTable) add(sid int32, types []uint32) {
	for _, typ := range types {
		t.all.add(sid)
		k := slices.Index(t.types, typ)
		if k < 0 {
			k = len(t.types)
			t.types = append(t.types, typ)
			t.byType = append(t.byType, sidCounts{})
		}
		t.byType[k].add(sid)
	}
}

func (c *sidCounts) add(sid int32) {
	if n := len(c.sids); n > 0 && c.sids[n-1] == sid {
		c.counts[n-1]++
		return
	}
	c.sids = append(c.sids, sid)
	c.counts = append(c.counts, 1)
}

// clone returns a copy whose lengths later adds leave unchanged.
func (t *entityTable) clone() entityTable {
	return entityTable{all: t.all, types: slices.Clone(t.types), byType: slices.Clone(t.byType)}
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

// Stats returns summary statistics. Entities counts the distinct lowered
// mention texts of the columns. For block-backed indexes the word counts
// come from the store's directory — no posting blocks decode.
func (ix *Index) Stats() Stats {
	st := Stats{
		Entities:       ix.cols.distinctEntityTexts(),
		PLNodes:        ix.PL.NumNodes(),
		POSNodes:       ix.POS.NumNodes(),
		PLCompression:  ix.PL.CompressionRatio(),
		POSCompression: ix.POS.CompressionRatio(),
	}
	if ix.src != nil {
		ss := ix.src.SourceStats()
		st.Words = ss.Words
		st.TotalPostings = ss.TotalPostings
		return st
	}
	st.Words = len(ix.Word)
	for _, ps := range ix.Word {
		st.TotalPostings += len(ps)
	}
	return st
}
