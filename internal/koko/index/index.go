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
	// immutable: AddSentence must not be called on them.
	src PostingSource
}

// NewIndex returns an empty multi-index ready for AddSentence.
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

// Build constructs the multi-index over a corpus. The corpus must already be
// parsed.
func Build(c *Corpus) *Index {
	ix := NewIndex()
	for sid := range c.Sentences {
		ix.AddSentence(&c.Sentences[sid])
	}
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

// AddSentence merges one sentence into all four indices. The sentence's ID
// must be its corpus-global sentence id.
func (ix *Index) AddSentence(s *nlp.Sentence) {
	sid := int32(s.ID)
	for i := range s.Tokens {
		tok := &s.Tokens[i]
		p := Posting{Sid: sid, Tid: int32(i), U: int32(tok.SubL), V: int32(tok.SubR), D: int32(tok.Depth)}
		ix.Word[tok.Lower] = append(ix.Word[tok.Lower], p)
	}
	for _, e := range s.Entities {
		ep := EntityPosting{Sid: sid, U: int32(e.L), V: int32(e.R), Type: e.Type, Text: e.Text}
		key := strings.ToLower(e.Text)
		ix.Entity[key] = append(ix.Entity[key], ep)
		ix.ByType[e.Type] = append(ix.ByType[e.Type], ep)
	}
	ix.plidOf[sid] = ix.PL.AddSentence(s, func(t *nlp.Token) string { return t.Label })
	ix.posidOf[sid] = ix.POS.AddSentence(s, func(t *nlp.Token) string { return t.POS })
}

// Finish sorts all posting lists; call once after the last AddSentence.
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
