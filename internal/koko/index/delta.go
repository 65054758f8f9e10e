package index

import "repro/internal/nlp"

// Delta is the write side of a mutable corpus: a small corpus-plus-index
// that absorbs newly ingested documents one at a time, LSM-style, while the
// (much larger) base shards stay immutable. AddDocument appends straight
// into the existing posting and hierarchy structures — no rebuild — and
// Seal cuts an immutable read view that concurrent queries evaluate against
// while ingestion keeps appending. A compactor periodically folds the
// sealed prefix into the base shards (see Rebase).
//
// Document and sentence ids are delta-local, starting at 0; readers rebase
// them onto the global corpus by the base's document/sentence counts.
//
// A Delta is not itself safe for concurrent use: callers (koko.Mutable)
// serialize writers and hand readers only sealed views.
type Delta struct {
	c  *Columns
	ix *Index
	b  sentBuilder
}

// NewDelta returns an empty delta.
func NewDelta() *Delta {
	d := &Delta{c: NewColumns(), ix: NewIndex()}
	d.ix.cols = d.c
	return d
}

// NumDocs returns the number of documents in the delta.
func (d *Delta) NumDocs() int { return d.c.NumDocs() }

// NumSents returns the number of sentences in the delta.
func (d *Delta) NumSents() int { return d.c.NumSentences() }

// AddDocument appends one parsed document, merging its sentences into the
// delta's columns, posting and hierarchy structures incrementally. Because
// sentence ids are assigned in increasing order, appended word postings land
// already (sid, tid)-sorted, and so do the entity counts; only the
// hierarchy-node lists touched by each sentence need their trailing run
// repaired — O(sentence), never a full re-sort. sents is only read.
func (d *Delta) AddDocument(name string, sents []nlp.Sentence) {
	first := d.c.NumSentences()
	d.c.AppendDoc(name, sents)
	d.indexFrom(first)
}

// indexFrom indexes the delta's sentences from first on.
func (d *Delta) indexFrom(first int) {
	for sid := first; sid < d.c.NumSentences(); sid++ {
		s := d.c.Sent(sid)
		d.b.add(d.ix, &s)
		d.repairTails(&s)
	}
	d.b.flushWords(d.ix, &d.c.Dict)
}

// repairTails restores sorted order on the lists AddSentence appended to
// out of order: hierarchy nodes visit tokens in BFS order (not tid order).
func (d *Delta) repairTails(s *Sent) {
	sid := int32(s.ID)
	t0 := d.c.TokOff[sid]
	sortHierTails(d.ix.PL, d.ix.PLNode[t0:], sid)
	sortHierTails(d.ix.POS, d.ix.POSNode[t0:], sid)
}

// sortHierTails sorts the just-appended run of each hierarchy node touched
// by the sentence (ids holds one node id per token, with repeats; a run
// already in order is only checked).
func sortHierTails(h *Hierarchy, ids []int32, sid int32) {
	for _, id := range ids {
		h.SortTail(id, sid)
	}
}

// Seal cuts an immutable read view of the delta: columns and an index that
// concurrent readers may use freely while AddDocument keeps appending to
// the original. The columns copy is slice headers and a dictionary prefix
// view (see Columns); the index clone copies maps and hierarchy skeletons
// but shares all posting data and the node-id columns (see Index.Clone for
// why later appends cannot reach a sealed view).
func (d *Delta) Seal() (*Columns, *Index) {
	c := d.c.Seal()
	return c, d.ix.Clone(c)
}

// DocSpan returns delta document i's first sentence id and sentence count,
// both delta-local (callers rebase by the base's totals).
func (d *Delta) DocSpan(i int) (firstSID, nSents int) {
	m := d.c.Docs[i]
	return m.FirstSID, m.NumSents
}

// AppendTo copies documents [lo, hi) of the delta onto dst, renumbered to
// dst's sentence ids (the compactor's merge step).
func (d *Delta) AppendTo(dst *Columns, lo, hi int) {
	dst.AppendDocsFrom(d.c, lo, hi)
}

// Rebase returns a new delta holding only the documents from index n on,
// renumbered to start at doc 0 — what remains after a compaction folded the
// first n documents into the base. The surviving documents are copied and
// their (small) index rebuilt with delta-local ids.
func (d *Delta) Rebase(n int) *Delta {
	out := NewDelta()
	out.c.AppendDocsFrom(d.c, n, d.c.NumDocs())
	out.indexFrom(0)
	return out
}
