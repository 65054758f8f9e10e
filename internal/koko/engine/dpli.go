package engine

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"

	"repro/internal/koko/index"
	"repro/internal/koko/lang"
)

// varCounts estimates |bindings[v][sid]| for one variable as two parallel
// arrays sorted by sid — the flat replacement for the seed's
// map[string]map[int32]int count tables. Lookups during evaluation walk the
// arrays with a per-worker cursor (sids are visited in ascending order), so
// the GSP cost model costs O(1) amortized per probe and zero allocations.
type varCounts struct {
	sids   []int32
	counts []int32
}

// dpliResult carries the outcome of the Decompose-Paths-and-Lookup-Indices
// module (Algorithm 1): candidate sentences and per-variable binding
// estimates.
type dpliResult struct {
	// candSids is the sorted candidate sentence set: the join of all index
	// accesses. Empty + exhausted=true means the query provably has no
	// answers (a decomposed path missed the index entirely).
	candSids  []int32
	exhausted bool
	// allSentences is set when no variable constrains the candidate set
	// (empty extract clause): every sentence must be considered.
	allSentences bool
	// counts[slot] estimates |bindings[v][sid]| for the GSP cost model;
	// counts come from the variable's dominant path (Example 4.5). nil for
	// a run without estimates (RunNaive).
	counts []varCounts
}

// newVarCounts returns empty count arrays with room for n runs, sharing one
// allocation.
func newVarCounts(n int) varCounts {
	buf := make([]int32, 2*n)
	return varCounts{sids: buf[:0:n], counts: buf[n:n]}
}

// countsOfPostings collapses a (sid,tid)-sorted posting list into per-sid
// occurrence counts: one pass counts the runs, so the arrays are sized once.
func countsOfPostings(ps []index.Posting) varCounts {
	runs := 0
	for i := range ps {
		if i == 0 || ps[i].Sid != ps[i-1].Sid {
			runs++
		}
	}
	vc := newVarCounts(runs)
	for i := 0; i < len(ps); {
		j := i + 1
		for j < len(ps) && ps[j].Sid == ps[i].Sid {
			j++
		}
		vc.sids = append(vc.sids, ps[i].Sid)
		vc.counts = append(vc.counts, int32(j-i))
		i = j
	}
	return vc
}

// runBound bounds a possibly-lazy list's sentence runs without decoding a
// block: by its posting count and by the sid range its block directory
// spans.
func runBound(l index.PostingList) int {
	n := index.ListLen(l)
	if n == 0 {
		return 0
	}
	first, _ := l.BlockBounds(0)
	_, last := l.BlockBounds(l.NumBlocks() - 1)
	return min(n, int(last-first)+1)
}

// eachIn calls f with the postings of l whose sentence is in the sorted set
// within — every posting when within is nil — as (sid, tid)-ordered slices
// of l's blocks. A block whose sid bounds hold no sentence of within is
// skipped by its directory entry without decoding. One sentence's postings
// may arrive in several calls (a run spanning blocks).
func eachIn(l index.PostingList, within []int32, f func([]index.Posting)) {
	nb := 0
	if l != nil {
		nb = l.NumBlocks()
	}
	j := 0
	for i := 0; i < nb; i++ {
		if within == nil {
			f(l.Block(i))
			continue
		}
		lo, hi := l.BlockBounds(i)
		if j = index.SeekSidIn(within, j, lo); j == len(within) {
			return
		}
		if within[j] > hi {
			continue
		}
		blk := l.Block(i)
		for k := 0; j < len(within) && within[j] <= hi; j++ {
			k = seekSid(blk, k, within[j])
			e := seekSid(blk, k, within[j]+1)
			if e > k {
				f(blk[k:e])
			}
			k = e
		}
		if within[j-1] == hi {
			j-- // the sentence may continue into the next block
		}
	}
}

// countsOfList is countsOfPostings over a possibly-lazy list, restricted to
// the sentences of within (all when nil): postings stream through block by
// block, so only the count arrays — sized once by runBound — materialize.
func countsOfList(l index.PostingList, within []int32) varCounts {
	n := runBound(l)
	if within != nil {
		n = min(n, len(within))
	}
	vc := newVarCounts(n)
	eachIn(l, within, func(ps []index.Posting) {
		for _, p := range ps {
			if k := len(vc.sids) - 1; k >= 0 && vc.sids[k] == p.Sid {
				vc.counts[k]++
			} else {
				vc.sids = append(vc.sids, p.Sid)
				vc.counts = append(vc.counts, 1)
			}
		}
	})
	return vc
}

// sidsOfList is index.SidsOf over a possibly-lazy list, restricted to the
// sentences of within (all when nil).
func sidsOfList(l index.PostingList, within []int32) []int32 {
	n := runBound(l)
	if within != nil {
		n = min(n, len(within))
	}
	out := make([]int32, 0, n)
	eachIn(l, within, func(ps []index.Posting) {
		for _, p := range ps {
			if k := len(out) - 1; k < 0 || out[k] != p.Sid {
				out = append(out, p.Sid)
			}
		}
	})
	return out
}

// runDPLIGuarded is runDPLI inside the store recovery boundary (storeFault).
func runDPLIGuarded(nq *normQuery, ix *index.Index, planned bool) (res *dpliResult, err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if e := storeFault(ix, recover()); e != nil {
			res, err = nil, e
		}
	}()
	return runDPLI(nq, ix, planned), nil
}

// storeFault is the recovery boundary for damaged block stores, called with
// recover()'s value by the deferred functions of the two places a query
// reads postings: runDPLIGuarded and the document loop (the aggregator reads
// word postings). Lazy block decode has no error channel (posting-list
// access is plain slice access), so the block store panics with
// *index.StoreError on CRC or structural corruption, and this returns it as
// the query's error. A store file truncated under its live mmap faults
// (SIGBUS) instead of failing a CRC; with panic-on-fault set that is a
// runtime error carrying the faulting address, which becomes a
// *index.StoreError too rather than killing the process. Any other panic
// goes on.
func storeFault(ix *index.Index, r any) error {
	switch r := r.(type) {
	case nil:
		return nil
	case *index.StoreError:
		return r
	case interface {
		runtime.Error
		Addr() uintptr
	}:
		// Only a mapped store file can fault under a live query; on a
		// heap index the fault is a program bug and stays a crash.
		store, ok := ix.Source().(interface{ Path() string })
		if !ok {
			panic(r)
		}
		return &index.StoreError{Path: store.Path(), Err: fmt.Errorf("memory fault at %#x", r.Addr())}
	}
	panic(r)
}

// runDPLI implements §4.2 over the multi-index. Entity variables, literal
// token-sequence variables and dominant paths each contribute a sorted
// candidate sid set, and the candidates are their intersection. planned
// looks the word conjunctions and dominant paths up in ascending order of
// their lead list's exact posting count (known from the directories,
// nothing decoded) and restricts each later lookup to the running
// candidate set, so a common path walks only the sentences the rarer ones
// left. Every lookup is per sentence, so a restricted lookup returns the
// unrestricted one's postings in the surviving sentences: the candidate
// set is the same either way, and so is every binding estimate at a
// candidate sid — the only sids plans (sumCounts) and evaluation
// (countCursor) read. planned=false keeps the written order, unrestricted.
func runDPLI(nq *normQuery, ix *index.Index, planned bool) *dpliResult {
	res := &dpliResult{counts: make([]varCounts, len(nq.vars))}
	var cand []int32
	narrowed := false
	// narrow intersects the running candidate set with sids and reports
	// whether any candidate is left.
	narrow := func(sids []int32) bool {
		if narrowed {
			cand = index.IntersectSids(cand, sids)
		} else {
			cand, narrowed = sids, true
		}
		return len(cand) > 0
	}

	// Entity variables: the index's per-type mention counts, shared and
	// read-only (cand may alias them; narrow never writes into it).
	for _, v := range nq.vars {
		if v.kind != vkEntity {
			continue
		}
		var vc varCounts
		vc.sids, vc.counts = ix.EntityCounts(v.etype)
		res.counts[v.slot] = vc
		if !narrow(vc.sids) {
			res.exhausted = true
			return res
		}
	}

	// A lookup is one index access that narrows the candidates: size is its
	// lead list's exact posting count, run returns the sids it keeps within a
	// candidate set (nil: unrestricted).
	type lookup struct {
		size int
		run  func(within []int32) []int32
	}
	var lookups []lookup

	// Literal token-sequence variables prune through the word index.
	for _, v := range nq.vars {
		if v.kind != vkTokens || len(v.words) == 0 {
			continue
		}
		lists := make([]index.PostingList, len(v.words))
		size := math.MaxInt
		for k, w := range v.words {
			lists[k] = ix.WordList(w)
			size = min(size, index.ListLen(lists[k]))
		}
		if size == 0 {
			res.exhausted = true
			return res
		}
		lookups = append(lookups, lookup{size, func(within []int32) []int32 {
			res.counts[v.slot] = countsOfList(lists[0], within)
			return wordConjunctionSids(lists, within)
		}})
	}

	// Dominant paths (§4.2.1): decompose and look up each; dominated
	// variables inherit their dominant path's bindings.
	dominant, repOf := nq.dominantPaths()
	domCounts := make(map[string]varCounts, len(dominant))
	for _, dv := range dominant {
		pq := decomposePath(ix, dv.path, FullMode)
		if pq.miss {
			res.exhausted = true
			return res
		}
		lookups = append(lookups, lookup{pq.size, func(within []int32) []int32 {
			vc := countsOfPostings(pq.lookup(within))
			domCounts[dv.name] = vc
			return vc.sids
		}})
	}

	if !narrowed && len(lookups) == 0 {
		res.allSentences = true
		return res
	}
	if planned {
		sort.SliceStable(lookups, func(i, j int) bool { return lookups[i].size < lookups[j].size })
	}
	for _, l := range lookups {
		var within []int32
		if planned && narrowed {
			within = cand
		}
		if !narrow(l.run(within)) {
			res.exhausted = true
			return res
		}
	}
	for _, v := range nq.nodeVars() {
		res.counts[v.slot] = domCounts[repOf[v.name].name]
	}
	res.candSids = cand
	return res
}

// countCursor walks the per-slot count arrays for one worker. Sentence ids
// ascend within a worker's document stream, so each slot needs only a
// forward cursor — no map lookups, no binary search in the common case.
type countCursor struct {
	d   *dpliResult
	pos []int
}

func newCountCursor(d *dpliResult, numVars int) countCursor {
	return countCursor{d: d, pos: make([]int, numVars)}
}

// at returns the binding estimate for (slot, sid). sid must be
// non-decreasing across calls for a given slot.
func (cc *countCursor) at(slot int, sid int32) int {
	if cc.d == nil || slot >= len(cc.d.counts) {
		return 0
	}
	vc := &cc.d.counts[slot]
	p := cc.pos[slot]
	for p < len(vc.sids) && vc.sids[p] < sid {
		p++
	}
	cc.pos[slot] = p
	if p < len(vc.sids) && vc.sids[p] == sid {
		return int(vc.counts[p])
	}
	return 0
}

// AblationMode selects which index families DPLI may consult — the
// design-choice ablation of the multi-indexing scheme. The zero value
// disables everything; FullMode is the real engine.
type AblationMode struct {
	UsePL    bool // parse-label hierarchy index
	UsePOS   bool // POS-tag hierarchy index
	UseWords bool // word inverted index
}

// FullMode is the complete multi-index.
var FullMode = AblationMode{UsePL: true, UsePOS: true, UseWords: true}

// LookupDecomposed decomposes one dominant path into parse-label, POS, and
// word paths (Example 4.2), performs the index lookups, and joins the
// results (§4.2.2). ok=false means some decomposed path has no index match,
// in which case evaluation "immediately ceases" (§4.2.2 Discussion).
// Exported for the index-scheme comparison harness.
func LookupDecomposed(ix *index.Index, steps []lang.PathStep) ([]index.Posting, bool) {
	return LookupDecomposedMode(ix, steps, FullMode)
}

// LookupDecomposedMode is LookupDecomposed restricted to a subset of the
// index families; disabled families contribute no pruning (their decomposed
// paths are treated as pure wildcards). Used by the ablation experiments.
func LookupDecomposedMode(ix *index.Index, steps []lang.PathStep, mode AblationMode) ([]index.Posting, bool) {
	ps := decomposePath(ix, steps, mode).lookup(nil)
	return ps, len(ps) > 0
}

// nodeSet is the hierarchy side of one decomposed path on one alphabet: the
// nodes its concrete path matches, as a set over node ids, and the index's
// node-id column for that alphabet. "Token t is in the path's lookup" is
// in[col[t]], because each node's list holds exactly the tokens whose root
// path is that node.
type nodeSet struct {
	lists []index.PostingList // the matched nodes' non-empty lists
	in    []bool              // by node id
	col   []int32             // Index.PLNode or Index.POSNode
	n     int                 // postings under the matched nodes
}

// matchNodes resolves a concrete hierarchy path to its node set; counting
// its postings reads only list lengths, so no block decodes.
func matchNodes(h *index.Hierarchy, p index.Path, col []int32) *nodeSet {
	ns := &nodeSet{in: make([]bool, len(h.Labels)), col: col}
	for _, node := range h.LookupNodes(p) {
		if l := h.NodeList(node); index.ListLen(l) > 0 {
			ns.in[node] = true
			ns.lists = append(ns.lists, l)
			ns.n += l.Len()
		}
	}
	return ns
}

// wordAt is one word a decomposed path names, with its step.
type wordAt struct {
	word string
	step int
	list index.PostingList
}

// pathQuery is one path decomposed into its parse-label, POS and word paths
// (Example 4.2), resolved against the index but not yet looked up.
type pathQuery struct {
	ix      *index.Index
	steps   []lang.PathStep
	pl, pos *nodeSet // nil: the alphabet's path is all wildcards
	words   []wordAt
	// size is the exact posting count of the lookup's lead list: its
	// smallest word list, else its smaller node set, else every token.
	size int
	// miss: some decomposed path has no index match, so the lookup is empty.
	miss bool
}

// decomposePath splits a path into its PL, POS and word paths and resolves
// them: the matched hierarchy node sets and the words' lists. A decomposed
// path that is entirely wildcards on one alphabet carries only depth
// constraints, which the depth rule already enforces — so it is skipped
// (Algorithm 1 decomposes "if possible").
func decomposePath(ix *index.Index, steps []lang.PathStep, mode AblationMode) *pathQuery {
	m := len(steps)
	plPath := make(index.Path, m)
	posPath := make(index.Path, m)
	pq := &pathQuery{ix: ix, steps: steps}
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
			pq.words = append(pq.words, wordAt{word: canon, step: i})
		}
		if p := stepPOS(st); p != "" && posPath[i].Label == "*" {
			posPath[i].Label = p
		}
		if cls != scWord {
			if w := stepWord(st); w != "" {
				pq.words = append(pq.words, wordAt{word: w, step: i})
			}
		}
	}
	if !mode.UseWords {
		pq.words = nil
	}
	pq.size = ix.Columns().NumTokens()
	if mode.UsePL && hasConcrete(plPath) {
		pq.pl = matchNodes(ix.PL, plPath, ix.PLNode)
		pq.size = min(pq.size, pq.pl.n)
		pq.miss = pq.pl.n == 0
	}
	if mode.UsePOS && hasConcrete(posPath) {
		pq.pos = matchNodes(ix.POS, posPath, ix.POSNode)
		pq.size = min(pq.size, pq.pos.n)
		pq.miss = pq.miss || pq.pos.n == 0
	}
	if len(pq.words) > 0 {
		pq.size = math.MaxInt
		for k := range pq.words {
			w := &pq.words[k]
			w.list = ix.WordList(w.word)
			pq.size = min(pq.size, index.ListLen(w.list))
		}
		pq.miss = pq.miss || pq.size == 0
	}
	return pq
}

// exactBetween reports whether the axes of steps (from, to] are all child
// axes, so a depth difference across them is exact rather than a lower
// bound; from = -1 asks about the prefix up to to.
func (pq *pathQuery) exactBetween(from, to int) bool {
	for i := from + 1; i <= to; i++ {
		if pq.steps[i].Desc {
			return false
		}
	}
	return true
}

// nodesOK reports whether token offset t passes both node-id checks.
func (pq *pathQuery) nodesOK(t int32) bool {
	return (pq.pl == nil || pq.pl.in[pq.pl.col[t]]) && (pq.pos == nil || pq.pos.in[pq.pos.col[t]])
}

// lookup runs the decomposed path's index lookups and joins them (§4.2.2),
// keeping only the sentences of within (all when nil). The hierarchy side
// is the node-id columns: a path with words joins only the word lists and
// then checks its tokens' node ids, and a path without words walks the
// smaller of its two node sets' lists as its lead, checking the other
// alphabet's node id. No hierarchy list is walked when a word anchors the
// path, and no list of one alphabet is ever joined with the other's.
func (pq *pathQuery) lookup(within []int32) []index.Posting {
	if pq.miss {
		return nil
	}
	if len(pq.words) == 0 {
		return pq.lookupNodes(within)
	}
	// Word path: access the word index per word left to right and join with
	// the ancestor/descendant depth arithmetic (Example 4.4).
	lists := make([][]index.Posting, len(pq.words))
	for k, w := range pq.words {
		lists[k] = filterByDepth(w.list, within, int32(w.step), pq.exactBetween(-1, w.step))
		if len(lists[k]) == 0 {
			return nil
		}
	}
	q := lists[0]
	for k := 1; k < len(pq.words); k++ {
		prev, next := pq.words[k-1].step, pq.words[k].step
		if q = joinAncestorDescendant(q, lists[k], int32(next-prev), pq.exactBetween(prev, next)); len(q) == 0 {
			return nil
		}
	}

	m := len(pq.steps)
	last := pq.words[len(pq.words)-1].step
	if last == m-1 {
		// The last path element is the word token: keep the word postings
		// whose node ids pass (q is this lookup's own slice).
		out := q[:0]
		cols := pq.ix.Columns()
		for _, p := range q {
			if pq.nodesOK(cols.TokOff[p.Sid] + p.Tid) {
				out = append(out, p)
			}
		}
		return out
	}
	return pq.belowWords(q, int32(m-1-last), pq.exactBetween(last, m-1))
}

// belowWords is the final P⋈Q join of §4.2.2 over the columns when the last
// word is above the path's last step: in each sentence of q it keeps the
// tokens that sit at the last step's depth, pass the node-id checks, and
// have an ancestor in the sentence's q postings at the depth difference gap
// (exact, or a lower bound). Only tokens inside some q posting's subtree are
// scanned.
func (pq *pathQuery) belowWords(q []index.Posting, gap int32, exact bool) []index.Posting {
	cols := pq.ix.Columns()
	m := int32(len(pq.steps))
	exactD := pq.exactBetween(-1, int(m-1))
	var out []index.Posting
	for i := 0; i < len(q); {
		sid := q[i].Sid
		j := seekSid(q, i, sid+1)
		run := q[i:j]
		lo, hi := run[0].U, run[0].V
		for _, a := range run[1:] {
			lo, hi = min(lo, a.U), max(hi, a.V)
		}
		t0 := cols.TokOff[sid]
		for tid := lo; tid <= hi; tid++ {
			t := t0 + tid
			d := cols.Depth[t]
			if !depthOK(d, m-1, 0, exactD) || !pq.nodesOK(t) {
				continue
			}
			u, v := cols.SubL[t], cols.SubR[t]
			for _, a := range run {
				if a.U <= u && a.V >= v && depthOK(d, a.D, gap, exact) {
					out = append(out, index.Posting{Sid: sid, Tid: tid, U: u, V: v, D: d})
					break
				}
			}
		}
		i = j
	}
	return out
}

// lookupNodes answers a path without words. With a concrete hierarchy path
// it walks the lists of the node set with fewer postings together, a
// sentence at a time, and keeps each token whose other node id passes,
// straight into the sorted result. A pure-wildcard path is a depth rule
// only, so it scans the columns.
func (pq *pathQuery) lookupNodes(within []int32) []index.Posting {
	cols := pq.ix.Columns()
	lead := pq.pl
	if lead == nil || (pq.pos != nil && pq.pos.n < lead.n) {
		lead = pq.pos
	}
	if lead == nil {
		m := int32(len(pq.steps))
		exact := pq.exactBetween(-1, int(m-1))
		var out []index.Posting
		scan := func(sid int32) {
			t0 := cols.TokOff[sid]
			for t := t0; t < cols.TokOff[sid+1]; t++ {
				if d := cols.Depth[t]; depthOK(d, m-1, 0, exact) {
					out = append(out, index.Posting{Sid: sid, Tid: t - t0, U: cols.SubL[t], V: cols.SubR[t], D: d})
				}
			}
		}
		if within != nil {
			for _, sid := range within {
				scan(sid)
			}
		} else {
			for sid := range int32(cols.NumSentences()) {
				scan(sid)
			}
		}
		return out
	}
	// Room for the lead's postings, or for their average share per
	// sentence (rounded up) in each sentence of within.
	size := lead.n
	if within != nil {
		size = min(size, len(within)*(lead.n/max(cols.NumSentences(), 1)+1))
	}
	out := make([]index.Posting, 0, size)
	curs := make([]index.ListCursor, len(lead.lists))
	for i, l := range lead.lists {
		curs[i].Reset(l)
	}
	for j := 0; ; j++ {
		// The next sentence: within's next, or the lowest any list is at.
		sid := int32(math.MaxInt32)
		if within != nil {
			if j == len(within) {
				break
			}
			sid = within[j]
			for i := range curs {
				curs[i].SeekSid(sid)
			}
		} else {
			for i := range curs {
				if curs[i].Valid() {
					sid = min(sid, curs[i].Sid())
				}
			}
			if sid == math.MaxInt32 {
				break
			}
		}
		start, runs := len(out), 0
		for i := range curs {
			c := &curs[i]
			if !c.Valid() || c.Sid() != sid {
				continue
			}
			for _, p := range c.Run() {
				if pq.nodesOK(cols.TokOff[sid] + p.Tid) {
					out = append(out, p)
				}
			}
			c.NextRun()
			runs++
		}
		if runs > 1 {
			// Each list's run is in tid order and a token is in one
			// node's list only, so ordering by tid merges them.
			slices.SortFunc(out[start:], func(a, b index.Posting) int { return cmp.Compare(a.Tid, b.Tid) })
		}
	}
	return out
}

// hasConcrete reports whether any step of a hierarchy path names a concrete
// label (a pure-wildcard path adds no pruning beyond depth).
func hasConcrete(p index.Path) bool {
	for _, s := range p {
		if s.Label != "*" {
			return true
		}
	}
	return false
}

func depthOK(descD, ancD, gap int32, exact bool) bool {
	if exact {
		return descD == ancD+gap
	}
	return descD >= ancD+gap
}

// filterByDepth keeps the postings of l in the sentences of within (all
// when nil) whose depth satisfies the step-position rule: a token matching
// step i has depth exactly i when every axis up to i is a child axis, and
// depth >= i otherwise. Blocks stream through one at a time; only the
// matches materialize.
func filterByDepth(l index.PostingList, within []int32, step int32, exact bool) []index.Posting {
	var out []index.Posting
	if within == nil {
		out = make([]index.Posting, 0, index.ListLen(l))
	}
	eachIn(l, within, func(ps []index.Posting) {
		for _, p := range ps {
			if depthOK(p.D, step, 0, exact) {
				out = append(out, p)
			}
		}
	})
	return out
}

// seekSid returns the smallest index i >= from with ps[i].Sid >= sid,
// galloping forward then binary searching — the merge joins use it to skip
// runs instead of scanning posting by posting.
func seekSid(ps []index.Posting, from int, sid int32) int {
	if from >= len(ps) || ps[from].Sid >= sid {
		return from
	}
	// Gallop: double the step until we overshoot.
	step := 1
	lo, hi := from, from+1
	for hi < len(ps) && ps[hi].Sid < sid {
		lo = hi
		step *= 2
		hi += step
	}
	if hi > len(ps) {
		hi = len(ps)
	}
	// Binary search within (lo, hi].
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ps[mid].Sid < sid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// joinAncestorDescendant returns the quintuples of next that have an
// ancestor in cur at the required depth difference (Example 4.4's join:
// x1=x2, u1<=u2, v1>=v2, l2 >= l1+gap, or equality when exact). Both lists
// are (sid,tid)-sorted; the join aligns per-sentence runs with galloping
// seeks and only does quadratic work within one sentence's (small) runs.
func joinAncestorDescendant(cur, next []index.Posting, gap int32, exact bool) []index.Posting {
	var out []index.Posting
	i, j := 0, 0
	for i < len(cur) && j < len(next) {
		if cur[i].Sid < next[j].Sid {
			i = seekSid(cur, i, next[j].Sid)
			continue
		}
		if next[j].Sid < cur[i].Sid {
			j = seekSid(next, j, cur[i].Sid)
			continue
		}
		sid := cur[i].Sid
		ie := seekSid(cur, i, sid+1)
		je := seekSid(next, j, sid+1)
		for jj := j; jj < je; jj++ {
			q := next[jj]
			for k := i; k < ie; k++ {
				c := cur[k]
				if c.U <= q.U && c.V >= q.V && depthOK(q.D, c.D, gap, exact) {
					out = append(out, q)
					break
				}
			}
		}
		i, j = ie, je
	}
	return out
}

// wordConjunctionSids returns the sorted ids of the sentences of within
// (all when nil) that contain every word, nil when there are none.
func wordConjunctionSids(lists []index.PostingList, within []int32) []int32 {
	sids := within
	for _, l := range lists {
		if sids = sidsOfList(l, sids); len(sids) == 0 {
			return nil
		}
	}
	return sids
}
