package engine

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
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
// block: by its posting count and by the sid range its block directories
// span (a Union's by its node lists', since its own bounds materialize it).
func runBound(l index.PostingList) int {
	lists, ok := l.(index.Union)
	if !ok {
		lists = index.Union{l}
	}
	n, lo, hi := 0, int32(math.MaxInt32), int32(0)
	for _, l := range lists {
		if nb := index.ListLen(l); nb > 0 {
			n += nb
			first, _ := l.BlockBounds(0)
			_, last := l.BlockBounds(l.NumBlocks() - 1)
			lo, hi = min(lo, first), max(hi, last)
		}
	}
	if n == 0 {
		return 0
	}
	return min(n, int(hi-lo)+1)
}

// countsOfList is countsOfPostings over a possibly-lazy list: runs stream
// through the cursor one block at a time, so only the count arrays — sized
// once by runBound — materialize.
func countsOfList(l index.PostingList) varCounts {
	vc := newVarCounts(runBound(l))
	var c index.ListCursor
	for c.Reset(l); c.Valid(); c.NextRun() {
		vc.sids = append(vc.sids, c.Sid())
		vc.counts = append(vc.counts, int32(len(c.Run())))
	}
	return vc
}

// sidsOfList is index.SidsOf over a possibly-lazy list, sized once by
// runBound.
func sidsOfList(l index.PostingList) []int32 {
	out := make([]int32, 0, runBound(l))
	var c index.ListCursor
	for c.Reset(l); c.Valid(); c.NextRun() {
		out = append(out, c.Sid())
	}
	return out
}

// countsOfEntities is countsOfPostings for (sid,u)-sorted entity postings.
func countsOfEntities(eps []index.EntityPosting) varCounts {
	runs := 0
	for i := range eps {
		if i == 0 || eps[i].Sid != eps[i-1].Sid {
			runs++
		}
	}
	vc := newVarCounts(runs)
	for i := 0; i < len(eps); {
		j := i + 1
		for j < len(eps) && eps[j].Sid == eps[i].Sid {
			j++
		}
		vc.sids = append(vc.sids, eps[i].Sid)
		vc.counts = append(vc.counts, int32(j-i))
		i = j
	}
	return vc
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

// runDPLI implements §4.2 over the multi-index. planned enables the
// selectivity-ordered join pre-filter inside decomposed-path lookups (the
// planner's DPLI-level leg); planned=false reproduces the written-order
// baseline exactly.
func runDPLI(nq *normQuery, ix *index.Index, planned bool) *dpliResult {
	res := &dpliResult{counts: make([]varCounts, len(nq.vars))}
	var sidSets [][]int32

	// Entity variables: posting lists from the entity index.
	for _, v := range nq.vars {
		if v.kind != vkEntity {
			continue
		}
		eps := ix.EntitiesOfType(v.etype)
		if len(eps) == 0 {
			res.exhausted = true
			return res
		}
		vc := countsOfEntities(eps)
		res.counts[v.slot] = vc
		sidSets = append(sidSets, vc.sids)
	}

	// Literal token-sequence variables prune through the word index.
	for _, v := range nq.vars {
		if v.kind != vkTokens || len(v.words) == 0 {
			continue
		}
		sids := wordConjunctionSids(ix, v.words)
		if sids == nil {
			res.exhausted = true
			return res
		}
		res.counts[v.slot] = countsOfList(ix.WordList(v.words[0]))
		sidSets = append(sidSets, sids)
	}

	// Dominant paths (§4.2.1): decompose and look up each; dominated
	// variables inherit their dominant path's bindings.
	dominant, repOf := nq.dominantPaths()
	domCounts := map[string]varCounts{}
	for _, dv := range dominant {
		ps, ok := lookupDecomposed(ix, dv.path, FullMode, planned)
		if !ok {
			res.exhausted = true
			return res
		}
		vc := countsOfPostings(ps)
		domCounts[dv.name] = vc
		sidSets = append(sidSets, vc.sids)
	}
	for _, v := range nq.nodeVars() {
		res.counts[v.slot] = domCounts[repOf[v.name].name]
	}

	if len(sidSets) == 0 {
		res.allSentences = true
		return res
	}
	// Intersect smallest-first: start from the most selective set so every
	// later intersection (galloping inside IntersectSids) works on the
	// smallest possible frontier.
	sort.Slice(sidSets, func(i, j int) bool { return len(sidSets[i]) < len(sidSets[j]) })
	cand := sidSets[0]
	for _, s := range sidSets[1:] {
		if len(cand) == 0 {
			break
		}
		cand = index.IntersectSids(cand, s)
	}
	res.candSids = cand
	if len(cand) == 0 {
		res.exhausted = true
	}
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
	return lookupDecomposed(ix, steps, FullMode, false)
}

// LookupDecomposedMode is LookupDecomposed restricted to a subset of the
// index families; disabled families contribute no pruning (their decomposed
// paths are treated as pure wildcards). Used by the ablation experiments.
func LookupDecomposedMode(ix *index.Index, steps []lang.PathStep, mode AblationMode) ([]index.Posting, bool) {
	return lookupDecomposed(ix, steps, mode, false)
}

// lookupDecomposed is the shared implementation. planned evaluates words
// first: the depth-filtered word lists' sentence-id sets are intersected
// smallest-first, the lazy hierarchy lists are restricted to the survivors
// by seeking through them (skipping undecoded blocks and never merging a
// union's other sentences), then the PL⋈POS join runs, and its sid set in
// turn restricts the word lists before the pairwise joinAncestorDescendant /
// joinSameToken / joinHasAncestor merges. Every join is per sentence, and any
// posting the unfiltered joins would emit has a same-sentence witness in
// every list, so its sentence survives each restriction and the filtered
// joins emit it too: the output is identical, and the merge work is
// proportional to the most selective list instead of the first. planned=false
// keeps the written order (PL⋈POS first), over the same lazy lists.
func lookupDecomposed(ix *index.Index, steps []lang.PathStep, mode AblationMode, planned bool) ([]index.Posting, bool) {
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

	// Hierarchy lookups. A decomposed path that is entirely wildcards on one
	// alphabet carries only depth constraints, which the other alphabet's
	// lookup over the isomorphic hierarchy already enforces — so it is
	// skipped (Algorithm 1 decomposes "if possible").
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
	// The hierarchy lists stay lazy: one matched node's list is the node's
	// own (block-backed) list, several are an index.Union walked by a merging
	// cursor. No union is ever materialized — the cursor joins and filters
	// below decode only the blocks whose sid bounds survive the merge.
	var hier []index.PostingList
	if hasConcrete(plPath) {
		hier = append(hier, ix.PL.LookupList(plPath))
	}
	if hasConcrete(posPath) {
		hier = append(hier, ix.POS.LookupList(posPath))
	}
	for _, l := range hier {
		if index.ListLen(l) == 0 {
			return nil, false
		}
	}
	pAll := len(hier) == 0 // neither hierarchy path has concrete labels
	if pAll && len(words) == 0 {
		// Pure-wildcard path with no words: fall back to a full
		// POS-hierarchy walk so the depth constraint still applies.
		ps := ix.POS.Lookup(posPath)
		if len(ps) == 0 {
			return nil, false
		}
		return ps, true
	}
	// joinHier is P: the PL⋈POS same-token join, or the one hierarchy list.
	joinHier := func() index.PostingList {
		if len(hier) == 2 {
			return index.SlicePostings(joinSameToken(hier[0], hier[1]))
		}
		return hier[0]
	}

	if len(words) == 0 {
		if p := index.Materialize(joinHier()); len(p) > 0 {
			return p, true
		}
		return nil, false
	}

	// Word path: access the word index per word left-to-right and join with
	// the ancestor/descendant depth arithmetic (Example 4.4). minGapExact
	// tells whether the depth difference is exact (all '/' axes between the
	// two words) or a lower bound (some '//' axis).
	exactPrefix := func(upto int) bool { // axes 0..upto all child axes?
		for i := 0; i <= upto; i++ {
			if steps[i].Desc {
				return false
			}
		}
		return true
	}
	exactBetween := func(from, to int) bool { // axes (from, to]
		for i := from + 1; i <= to; i++ {
			if steps[i].Desc {
				return false
			}
		}
		return true
	}

	lists := make([][]index.Posting, len(words))
	for k, w := range words {
		lists[k] = filterByDepth(ix.WordList(w.word), int32(w.step), exactPrefix(w.step))
		if len(lists[k]) == 0 {
			return nil, false
		}
	}
	// One word against at most one lazy hierarchy list is a single merge
	// join that already seeks through both; restricting first would only
	// walk them twice.
	planFilter := planned && (len(words) > 1 || len(hier) == 2)
	var allowed []int32
	if planFilter {
		// Words first: intersect the word lists' sentence ids smallest-first,
		// then restrict each lazy hierarchy list to the survivors by seeking
		// through it, so the PL⋈POS join below sees only those sentences.
		sets := make([][]int32, 0, len(words))
		for _, l := range lists {
			sets = append(sets, index.SidsOf(l))
		}
		sort.Slice(sets, func(i, j int) bool { return len(sets[i]) < len(sets[j]) })
		allowed = sets[0]
		for _, s := range sets[1:] {
			if len(allowed) == 0 {
				break
			}
			allowed = index.IntersectSids(allowed, s)
		}
		if len(allowed) == 0 {
			return nil, false
		}
		for i, l := range hier {
			hier[i] = index.SlicePostings(filterBySids(l, allowed))
		}
	}
	var p index.PostingList
	if !pAll {
		p = joinHier()
		if index.ListLen(p) == 0 {
			return nil, false
		}
	}
	if planFilter {
		// P already lies within the word survivors, so its own sid set is the
		// intersection of every list's: restrict the word lists to it.
		if !pAll {
			allowed = sidsOfList(p)
		}
		for k := range lists {
			lists[k] = filterBySids(index.SlicePostings(lists[k]), allowed)
		}
	}
	cur := lists[0]
	for k := 1; k < len(words); k++ {
		gap := int32(words[k].step - words[k-1].step)
		exact := exactBetween(words[k-1].step, words[k].step)
		cur = joinAncestorDescendant(cur, lists[k], gap, exact)
		if len(cur) == 0 {
			return nil, false
		}
	}
	q := cur

	// Join P with Q (§4.2.2 "Join of posting lists from all indices").
	last := words[len(words)-1]
	if last.step == m-1 {
		if pAll {
			// No hierarchy constraint beyond what the word chain enforced.
			return q, true
		}
		// The last path element is a word token: same-token join.
		out := joinSameToken(p, index.SlicePostings(q))
		if len(out) == 0 {
			return nil, false
		}
		return out, true
	}
	if pAll {
		// The trailing steps are wildcards: the ancestor join seeks through
		// the depth-pruned POS walk's lazy union.
		p = ix.POS.LookupList(posPath)
		if index.ListLen(p) == 0 {
			return nil, false
		}
	}
	// Otherwise the last word is an ancestor of the path's final token:
	// return p's quintuples that have a suitable ancestor in Q.
	out := joinHasAncestor(p, q, int32(m-1-last.step), exactBetween(last.step, m-1))
	if len(out) == 0 {
		return nil, false
	}
	return out, true
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

// filterByDepth keeps postings whose depth satisfies the step-position rule:
// a token matching step i has depth exactly i when every axis up to i is a
// child axis, and depth >= i otherwise. Blocks of a lazy list stream through
// one at a time; only the matches materialize.
func filterByDepth(l index.PostingList, step int32, exact bool) []index.Posting {
	if index.ListLen(l) == 0 {
		return nil
	}
	out := make([]index.Posting, 0, l.Len())
	for i := 0; i < l.NumBlocks(); i++ {
		for _, p := range l.Block(i) {
			if (exact && p.D == step) || (!exact && p.D >= step) {
				out = append(out, p)
			}
		}
	}
	return out
}

// filterBySids keeps the postings whose sentence is in the sorted allowed
// set, one merge walk. Cursor seeks skip whole undecoded blocks between
// surviving sentences, so only blocks overlapping the allowed set decode.
func filterBySids(l index.PostingList, allowed []int32) []index.Posting {
	var out []index.Posting
	var c index.ListCursor
	c.Reset(l)
	j := 0
	for c.Valid() && j < len(allowed) {
		switch {
		case c.Sid() < allowed[j]:
			c.SeekSid(allowed[j])
		case allowed[j] < c.Sid():
			j++
		default:
			out = append(out, c.Run()...)
			c.NextRun()
			j++
		}
	}
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

// joinSameToken intersects two sorted posting lists on (sid, tid), keeping
// the quintuples of the first list. Runs of non-matching sentences are
// skipped with galloping cursor seeks, which for block-backed lists skip
// whole blocks by directory bounds without decoding them.
func joinSameToken(a, b index.PostingList) []index.Posting {
	out := make([]index.Posting, 0, min(index.ListLen(a), index.ListLen(b)))
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

// joinHasAncestor keeps the quintuples of p that have an ancestor in q at
// the required depth difference — the final P⋈Q join of §4.2.2. Like
// joinAncestorDescendant it is a per-sid merge join; p's cursor gallops
// through the block directory, so sentences q lacks cost no decodes.
func joinHasAncestor(p index.PostingList, q []index.Posting, gap int32, exact bool) []index.Posting {
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
			j = seekSid(q, j, cp.Sid())
			continue
		}
		sid := cp.Sid()
		je := seekSid(q, j, sid+1)
		for _, pp := range cp.Run() {
			for k := j; k < je; k++ {
				qq := q[k]
				if qq.U <= pp.U && qq.V >= pp.V && depthOK(pp.D, qq.D, gap, exact) {
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

// wordConjunctionSids returns the sorted sentence ids containing every word,
// or nil when some word is absent from the corpus.
func wordConjunctionSids(ix *index.Index, words []string) []int32 {
	var sids []int32
	for i, w := range words {
		l := ix.WordList(w)
		if index.ListLen(l) == 0 {
			return nil
		}
		s := sidsOfList(l)
		if i == 0 {
			sids = s
		} else {
			sids = index.IntersectSids(sids, s)
		}
		if len(sids) == 0 {
			return nil
		}
	}
	return sids
}
