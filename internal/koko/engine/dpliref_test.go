package engine

import (
	"slices"

	"repro/internal/koko/index"
	"repro/internal/koko/lang"
)

// This file freezes the merge-join decomposed-path lookup that ran before
// the hierarchy node-id columns: both hierarchy lookups as unions of node
// lists (refUnion), joined on (sid, tid) with each other and with the word
// chain.
// It is the reference semantics for FuzzLookupDecomposed — lookupDecomposed
// must return the same postings, in the same order, for every path and
// ablation mode. It is the written-order (unplanned) variant; the planned
// pre-filter never changed that output.

func refLookupDecomposed(ix *index.Index, steps []lang.PathStep, mode AblationMode) ([]index.Posting, bool) {
	m := len(steps)
	plPath := make(index.Path, m)
	posPath := make(index.Path, m)
	type wordAt struct {
		word string
		step int
	}
	var words []wordAt
	for i, st := range steps {
		cls, canon := classifyStep(st)
		plPath[i] = index.Step{Desc: st.Desc, Label: "*"}
		posPath[i] = index.Step{Desc: st.Desc, Label: "*"}
		switch cls {
		case scParse:
			plPath[i].Label = canon
		case scPOS:
			posPath[i].Label = canon
		case scWord:
			words = append(words, wordAt{word: canon, step: i})
		}
		if p := stepPOS(st); p != "" && posPath[i].Label == "*" {
			posPath[i].Label = p
		}
		if cls != scWord {
			if w := stepWord(st); w != "" {
				words = append(words, wordAt{word: w, step: i})
			}
		}
	}
	if !mode.UseWords {
		words = nil
	}
	if !mode.UsePL {
		for i := range plPath {
			plPath[i].Label = "*"
		}
	}
	if !mode.UsePOS {
		for i := range posPath {
			posPath[i].Label = "*"
		}
	}
	var hier []index.PostingList
	if refHasConcrete(plPath) {
		hier = append(hier, refUnion(ix.PL, plPath))
	}
	if refHasConcrete(posPath) {
		hier = append(hier, refUnion(ix.POS, posPath))
	}
	for _, l := range hier {
		if index.ListLen(l) == 0 {
			return nil, false
		}
	}
	pAll := len(hier) == 0
	if pAll && len(words) == 0 {
		ps := materialize(refUnion(ix.POS, posPath))
		if len(ps) == 0 {
			return nil, false
		}
		return ps, true
	}
	joinHier := func() index.PostingList {
		if len(hier) == 2 {
			return index.SlicePostings(refJoinSameToken(hier[0], hier[1]))
		}
		return hier[0]
	}
	if len(words) == 0 {
		if p := materialize(joinHier()); len(p) > 0 {
			return p, true
		}
		return nil, false
	}
	exactPrefix := func(upto int) bool {
		for i := 0; i <= upto; i++ {
			if steps[i].Desc {
				return false
			}
		}
		return true
	}
	exactBetween := func(from, to int) bool {
		for i := from + 1; i <= to; i++ {
			if steps[i].Desc {
				return false
			}
		}
		return true
	}
	lists := make([][]index.Posting, len(words))
	for k, w := range words {
		lists[k] = refFilterByDepth(ix.WordList(w.word), int32(w.step), exactPrefix(w.step))
		if len(lists[k]) == 0 {
			return nil, false
		}
	}
	var p index.PostingList
	if !pAll {
		p = joinHier()
		if index.ListLen(p) == 0 {
			return nil, false
		}
	}
	cur := lists[0]
	for k := 1; k < len(words); k++ {
		gap := int32(words[k].step - words[k-1].step)
		exact := exactBetween(words[k-1].step, words[k].step)
		cur = refJoinAncestorDescendant(cur, lists[k], gap, exact)
		if len(cur) == 0 {
			return nil, false
		}
	}
	q := cur
	last := words[len(words)-1]
	if last.step == m-1 {
		if pAll {
			return q, true
		}
		out := refJoinSameToken(p, index.SlicePostings(q))
		if len(out) == 0 {
			return nil, false
		}
		return out, true
	}
	if pAll {
		p = refUnion(ix.POS, posPath)
		if index.ListLen(p) == 0 {
			return nil, false
		}
	}
	out := refJoinHasAncestor(p, q, int32(m-1-last.step), exactBetween(last.step, m-1))
	if len(out) == 0 {
		return nil, false
	}
	return out, true
}

// materialize concatenates a possibly-lazy list's blocks into one slice.
func materialize(l index.PostingList) []index.Posting {
	if l == nil {
		return nil
	}
	var out []index.Posting
	for i := range l.NumBlocks() {
		out = append(out, l.Block(i)...)
	}
	return out
}

// refUnion is the union of every hierarchy node list whose root path
// matches p: the lists concatenated, sorted and deduplicated, nil when
// empty.
func refUnion(h *index.Hierarchy, p index.Path) index.PostingList {
	var ps []index.Posting
	for _, n := range h.LookupNodes(p) {
		ps = append(ps, materialize(h.NodeList(n))...)
	}
	if len(ps) == 0 {
		return nil
	}
	index.SortPostings(ps)
	return index.SlicePostings(slices.Compact(ps))
}

func refHasConcrete(p index.Path) bool {
	for _, s := range p {
		if s.Label != "*" {
			return true
		}
	}
	return false
}

func refDepthOK(descD, ancD, gap int32, exact bool) bool {
	if exact {
		return descD == ancD+gap
	}
	return descD >= ancD+gap
}

func refFilterByDepth(l index.PostingList, step int32, exact bool) []index.Posting {
	if index.ListLen(l) == 0 {
		return nil
	}
	var out []index.Posting
	for i := 0; i < l.NumBlocks(); i++ {
		for _, p := range l.Block(i) {
			if (exact && p.D == step) || (!exact && p.D >= step) {
				out = append(out, p)
			}
		}
	}
	return out
}

// refJoinSameToken intersects two sorted lists on (sid, tid), keeping the
// first list's quintuples.
func refJoinSameToken(a, b index.PostingList) []index.Posting {
	var out []index.Posting
	var ca, cb index.ListCursor
	ca.Reset(a)
	cb.Reset(b)
	for ca.Valid() && cb.Valid() {
		if ca.Sid() < cb.Sid() {
			ca.SeekSid(cb.Sid())
			continue
		}
		if cb.Sid() < ca.Sid() {
			cb.SeekSid(ca.Sid())
			continue
		}
		ra, rb := ca.Run(), cb.Run()
		i, j := 0, 0
		for i < len(ra) && j < len(rb) {
			switch {
			case ra[i].Tid < rb[j].Tid:
				i++
			case rb[j].Tid < ra[i].Tid:
				j++
			default:
				out = append(out, ra[i])
				i++
				j++
			}
		}
		ca.NextRun()
		cb.NextRun()
	}
	return out
}

// refJoinAncestorDescendant keeps next's quintuples with an ancestor in cur
// at the depth difference: a per-sentence merge join.
func refJoinAncestorDescendant(cur, next []index.Posting, gap int32, exact bool) []index.Posting {
	var out []index.Posting
	i, j := 0, 0
	for i < len(cur) && j < len(next) {
		if cur[i].Sid < next[j].Sid {
			i = refSeekSid(cur, i, next[j].Sid)
			continue
		}
		if next[j].Sid < cur[i].Sid {
			j = refSeekSid(next, j, cur[i].Sid)
			continue
		}
		sid := cur[i].Sid
		ie := refSeekSid(cur, i, sid+1)
		je := refSeekSid(next, j, sid+1)
		for jj := j; jj < je; jj++ {
			q := next[jj]
			for k := i; k < ie; k++ {
				c := cur[k]
				if c.U <= q.U && c.V >= q.V && refDepthOK(q.D, c.D, gap, exact) {
					out = append(out, q)
					break
				}
			}
		}
		i, j = ie, je
	}
	return out
}

// refJoinHasAncestor keeps p's quintuples with an ancestor in q at the
// depth difference: a per-sentence merge join seeking through p's cursor.
func refJoinHasAncestor(p index.PostingList, q []index.Posting, gap int32, exact bool) []index.Posting {
	var out []index.Posting
	var cp index.ListCursor
	cp.Reset(p)
	j := 0
	for cp.Valid() && j < len(q) {
		if cp.Sid() < q[j].Sid {
			cp.SeekSid(q[j].Sid)
			continue
		}
		if q[j].Sid < cp.Sid() {
			j = refSeekSid(q, j, cp.Sid())
			continue
		}
		sid := cp.Sid()
		je := refSeekSid(q, j, sid+1)
		for _, pp := range cp.Run() {
			for k := j; k < je; k++ {
				qq := q[k]
				if qq.U <= pp.U && qq.V >= pp.V && refDepthOK(pp.D, qq.D, gap, exact) {
					out = append(out, pp)
					break
				}
			}
		}
		j = je
		cp.NextRun()
	}
	return out
}

// refSeekSid returns the first index i >= from with ps[i].Sid >= sid.
func refSeekSid(ps []index.Posting, from int, sid int32) int {
	for from < len(ps) && ps[from].Sid < sid {
		from++
	}
	return from
}
