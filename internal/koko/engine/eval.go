package engine

import (
	"sort"

	"repro/internal/koko/index"
	"repro/internal/nlp"
)

// span is a token interval [l, r]; r == l-1 encodes the empty span at
// position l (elastic spans may be empty: ∧ is "zero or more tokens").
type span struct{ l, r int }

func (sp span) empty() bool    { return sp.r < sp.l }
func (sp span) length() int    { return sp.r - sp.l + 1 }
func emptySpanAt(pos int) span { return span{l: pos, r: pos - 1} }

// binding is one value for a variable within a sentence.
type binding struct {
	sp  span
	tid int // token id for node variables, -1 otherwise
}

// assignment is a slot-indexed binding vector: entry v.slot holds variable
// v's binding. Assignments handed to finishTuple are always fully bound
// (deriveAndEmit only emits complete assignments); partially-bound working
// state tracks boundness in a separate bitmask.
type assignment []binding

// bitmask is a variable-count bound set. Queries rarely exceed one word.
type bitmask []uint64

func newBitmask(n int) bitmask   { return make(bitmask, (n+63)/64) }
func (m bitmask) set(i int)      { m[i>>6] |= 1 << (uint(i) & 63) }
func (m bitmask) clear(i int)    { m[i>>6] &^= 1 << (uint(i) & 63) }
func (m bitmask) has(i int) bool { return m[i>>6]&(1<<(uint(i)&63)) != 0 }
func (m bitmask) reset() {
	for i := range m {
		m[i] = 0
	}
}
func (m bitmask) copyFrom(o bitmask) { copy(m, o) }

// gspCost is one skip-plan cost entry (generateSkipPlan scratch): a
// component's variable slot, its position within the horizontal, and its
// estimated binding count.
type gspCost struct {
	slot int
	pos  int
	cost float64
}

// sentEval evaluates the extract clause over one sentence at a time (§4.3:
// skip plan, nested loops, alignment, validation). It is a reusable per-run
// scratch: all slices below are allocated once per run, reset per sentence
// or per block, and shared with nothing, so a run allocates almost nothing
// per sentence.
type sentEval struct {
	nq     *normQuery
	gspOff bool
	s      *index.Sent // the sentence being planned or extracted

	skip  []bool      // slot -> skipped by the plan: the sentence's row of the block's skip slab
	cands [][]binding // slot -> candidate bindings (buffers reused)

	// nodeTids caches the sorted path-match result per node-variable
	// slot for O(log n) validation of skipped node variables; nodeDone marks
	// which slots are valid for the current sentence.
	nodeTids [][]int32
	nodeDone []bool

	pm pathMatcher // path-matching scratch

	enum []*normVar // enumerable variables this sentence, in loop order

	// plan, when non-nil, orders candidate building and the nested loops by
	// the per-query selectivity plan instead of declaration order. actual
	// accumulates per-slot candidate-list sizes for the plan's
	// estimated-vs-actual report.
	plan   *queryPlan
	actual []int64

	// Emission-order restoration scratch (only used when plan.reordered):
	// workIdx tracks the candidate index behind each working binding,
	// trackIdx arms per-assignment snapshots into outIdx, canonEnum is the
	// declaration-order enumerable list the sort key follows, sortPerm and
	// outScratch are the permutation buffers.
	workIdx    []int32
	trackIdx   bool
	outIdx     []int32
	canonEnum  []*normVar
	sortPerm   []int
	outScratch []binding

	work    assignment // nested-loop working assignment
	workSet bitmask
	full    assignment // derivation scratch
	fullSet bitmask

	alignSp []span // alignSpan tiling scratch
	alignOk []bool

	costs []gspCost // generateSkipPlan scratch

	// outB is the block's flat emission arena: assignment i is
	// outB[i*numVars : (i+1)*numVars], each sentence's emissions one run
	// after the previous sentence's. Emptied per block, reused.
	outB []binding
	nout int
}

// newSentEval builds the reusable scratch for one worker.
func newSentEval(nq *normQuery, gspOff bool) *sentEval {
	n := len(nq.vars)
	ev := &sentEval{
		nq:       nq,
		gspOff:   gspOff,
		cands:    make([][]binding, n),
		nodeTids: make([][]int32, n),
		nodeDone: make([]bool, n),
		enum:     make([]*normVar, 0, n),
		workIdx:  make([]int32, n),
		work:     make(assignment, n),
		workSet:  newBitmask(n),
		full:     make(assignment, n),
		fullSet:  newBitmask(n),
		alignSp:  make([]span, nq.maxComps),
		alignOk:  make([]bool, nq.maxComps),
		costs:    make([]gspCost, 0, nq.maxComps),
	}
	return ev
}

// setPlan installs the per-query evaluation order (nil = written order).
func (ev *sentEval) setPlan(p *queryPlan) {
	ev.plan = p
	if p != nil && ev.actual == nil {
		ev.actual = make([]int64, len(ev.nq.vars))
		ev.canonEnum = make([]*normVar, 0, len(ev.nq.vars))
	}
}

// resetOut empties the emission arena for a new block.
func (ev *sentEval) resetOut() {
	ev.outB = ev.outB[:0]
	ev.nout = 0
}

// planSkips generates sentence sid's skip plan (GSP) into skip, which must
// be all false. cc supplies the DPLI binding estimates; a cursor with no
// data (RunNaive) makes every non-elastic cost 0.
func (ev *sentEval) planSkips(s *index.Sent, cc *countCursor, sid int32, skip []bool) {
	ev.s, ev.skip = s, skip
	ev.generateSkipPlan(cc, sid)
}

// extract runs candidate building and the nested loops over s under the
// skip plan skip. It returns the number of assignments emitted for s, which
// are appended to the block's arena (read them with out) and stay valid
// until the next resetOut. With a plan, loops run in plan order and the
// emissions are re-sorted into declaration order, so the output sequence is
// identical either way.
func (ev *sentEval) extract(s *index.Sent, skip []bool) int {
	ev.s, ev.skip = s, skip
	clear(ev.nodeDone)
	ev.workSet.reset()
	start := ev.nout
	if !ev.buildCandidates() {
		return 0
	}
	ev.enum = ev.enum[:0]
	if ev.plan != nil {
		for _, st := range ev.plan.steps {
			if v := ev.nq.vars[st.slot]; ev.isEnumerable(v) {
				ev.enum = append(ev.enum, v)
			}
		}
	} else {
		for _, v := range ev.nq.vars {
			if ev.isEnumerable(v) {
				ev.enum = append(ev.enum, v)
			}
		}
	}
	ev.trackIdx = ev.plan != nil && ev.plan.reordered
	if ev.trackIdx {
		ev.outIdx = ev.outIdx[:0]
		ev.canonEnum = ev.canonEnum[:0]
		for _, v := range ev.nq.vars {
			if ev.isEnumerable(v) {
				ev.canonEnum = append(ev.canonEnum, v)
			}
		}
	}
	ev.enumerate(0)
	if ev.trackIdx && ev.nout-start > 1 {
		ev.restoreDeclOrder(start)
	}
	return ev.nout - start
}

// restoreDeclOrder re-sorts the sentence's emissions, the arena's run from
// assignment start on, into the sequence a declaration-order enumeration
// would have produced: ascending by the candidate indices of the enumerable
// variables taken in declaration order. The planned loops emit exactly the
// same assignment set (each assignment is uniquely identified by its
// candidate indices), so this sort makes planned and written-order runs
// byte-identical.
func (ev *sentEval) restoreDeclOrder(start int) {
	n := len(ev.nq.vars)
	perm := ev.sortPerm[:0]
	for i := 0; i < ev.nout-start; i++ {
		perm = append(perm, i)
	}
	sort.Slice(perm, func(a, b int) bool {
		ia, ib := perm[a]*n, perm[b]*n
		for _, v := range ev.canonEnum {
			da, db := ev.outIdx[ia+v.slot], ev.outIdx[ib+v.slot]
			if da != db {
				return da < db
			}
		}
		return false
	})
	ev.sortPerm = perm
	src := ev.outB[start*n:]
	if cap(ev.outScratch) < len(src) {
		ev.outScratch = make([]binding, len(src))
	}
	dst := ev.outScratch[:len(src)]
	for di, si := range perm {
		copy(dst[di*n:(di+1)*n], src[si*n:(si+1)*n])
	}
	copy(src, dst)
}

// out returns emitted assignment i of the block (valid until the next
// resetOut).
func (ev *sentEval) out(i int) assignment {
	n := len(ev.nq.vars)
	return assignment(ev.outB[i*n : (i+1)*n])
}

// isEnumerable reports whether a variable gets its own nested loop. Derived
// variables (subtrees, span concatenations) and skipped variables are
// computed from others.
func (ev *sentEval) isEnumerable(v *normVar) bool {
	return v.enumerableKind() && !ev.skip[v.slot]
}

// generateSkipPlan implements Algorithm 2 with one soundness refinement: a
// variable is only skipped when it has BOTH a left and a right neighbor in
// the horizontal condition (boundary variables would leave the span's
// extent undetermined, making alignment ambiguous). The paper's own
// examples (v1, v2 in Example 4.6) skip interior variables only.
func (ev *sentEval) generateSkipPlan(cc *countCursor, sid int32) {
	t := ev.s.Len()
	for _, h := range ev.nq.horizontals {
		costs := ev.costs[:0]
		for pos, cs := range h.compSlots {
			v := ev.nq.vars[cs]
			var c float64
			switch v.kind {
			case vkElastic:
				c = float64(t) * float64(t+1) / 2
			case vkSubtree:
				if cc != nil {
					c = float64(cc.at(v.baseSlot, sid))
				}
			default:
				if cc != nil {
					c = float64(cc.at(cs, sid))
				}
			}
			costs = append(costs, gspCost{slot: cs, pos: pos, cost: c})
		}
		// Insertion sort by (cost desc, name asc) — the same total order the
		// seed engine used; component counts are tiny, and this allocates
		// nothing.
		for i := 1; i < len(costs); i++ {
			for j := i; j > 0 && ev.costLess(costs[j], costs[j-1]); j-- {
				costs[j], costs[j-1] = costs[j-1], costs[j]
			}
		}
		for _, c := range costs {
			i := c.pos
			if i == 0 || i == len(h.compSlots)-1 {
				continue // boundary: not skippable
			}
			vl, vr := h.compSlots[i-1], h.compSlots[i+1]
			if !ev.skip[vl] && !ev.skip[vr] {
				ev.skip[c.slot] = true
			}
		}
		ev.costs = costs[:0]
	}
}

// costLess orders skip-plan candidates: higher cost first, variable name as
// the deterministic tiebreak (matching the seed semantics).
func (ev *sentEval) costLess(a, b gspCost) bool {
	if a.cost != b.cost {
		return a.cost > b.cost
	}
	return ev.nq.vars[a.slot].name < ev.nq.vars[b.slot].name
}

// buildCandidates fills per-variable candidate bindings. Returns false when
// some enumerable variable has no candidates (the sentence yields nothing).
// With a plan, lists are built in plan order so the cheapest empty list
// exits before any expensive list is materialized.
func (ev *sentEval) buildCandidates() bool {
	if ev.plan != nil {
		for i := range ev.plan.steps {
			if !ev.buildCandidateList(ev.nq.vars[ev.plan.steps[i].slot]) {
				return false
			}
		}
		return true
	}
	for _, v := range ev.nq.vars {
		if !v.enumerableKind() {
			continue
		}
		if !ev.buildCandidateList(v) {
			return false
		}
	}
	return true
}

// buildCandidateList fills one variable's candidate bindings, returning
// false when an enumerable variable comes up empty.
func (ev *sentEval) buildCandidateList(v *normVar) bool {
	s := ev.s
	t := s.Len()
	list := ev.cands[v.slot][:0]
	if !ev.isEnumerable(v) {
		ev.cands[v.slot] = list
		return true
	}
	switch v.kind {
	case vkNode:
		for _, tid := range ev.nodeMatches(v) {
			list = append(list, binding{sp: span{int(tid), int(tid)}, tid: int(tid)})
		}
	case vkEntity:
		for e := range s.EntType {
			if nlp.GPEAlias(v.etype, s.Dict.Str(s.EntType[e])) {
				list = append(list, binding{sp: span{int(s.EntL[e]), int(s.EntR[e])}, tid: -1})
			}
		}
	case vkTokens:
		for i := 0; i+len(v.wordIDs) <= t; i++ {
			if seqAt(s.Lower, i, v.wordIDs) {
				list = append(list, binding{sp: span{i, i + len(v.wordIDs) - 1}, tid: -1})
			}
		}
	case vkElastic:
		// Un-skipped elastic (or NOGSP): enumerate every span,
		// including the empty span at each position — the t(t+1)/2
		// cost the skip plan exists to avoid.
		for l := 0; l <= t; l++ {
			if ev.elasticOK(v, emptySpanAt(l)) {
				list = append(list, binding{sp: emptySpanAt(l), tid: -1})
			}
			for r := l; r < t; r++ {
				if ev.elasticOK(v, span{l, r}) {
					list = append(list, binding{sp: span{l, r}, tid: -1})
				}
			}
		}
	}
	ev.cands[v.slot] = list
	if ev.actual != nil {
		ev.actual[v.slot] += int64(len(list))
	}
	return len(list) > 0
}

// nodeMatches returns (and caches) the sound per-sentence matches of a node
// variable's absolute path, ascending.
func (ev *sentEval) nodeMatches(v *normVar) []int32 {
	if ev.nodeDone[v.slot] {
		return ev.nodeTids[v.slot]
	}
	ev.nodeTids[v.slot] = ev.pm.match(ev.s, v.steps, ev.nodeTids[v.slot][:0])
	ev.nodeDone[v.slot] = true
	return ev.nodeTids[v.slot]
}

// nodeMatchHas reports whether tid matches node variable v, via binary
// search of the cached sorted match list.
func (ev *sentEval) nodeMatchHas(v *normVar, tid int) bool {
	tids := ev.nodeMatches(v)
	lo, hi := 0, len(tids)
	for lo < hi {
		mid := (lo + hi) / 2
		if tids[mid] < int32(tid) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(tids) && tids[lo] == int32(tid)
}

// elasticOK checks an elastic span's bracket conditions.
func (ev *sentEval) elasticOK(v *normVar, sp span) bool {
	for i := range v.elastic {
		c := &v.elastic[i]
		switch c.key {
		case "min":
			if sp.length() < c.n {
				return false
			}
		case "max":
			if sp.length() > c.n {
				return false
			}
		case "regex":
			if sp.empty() || !fullMatch(c.re, ev.s.Text(sp.l, sp.r)) {
				return false
			}
		case "etype":
			if sp.empty() || !ev.entityIs(sp, c.etype) {
				return false
			}
		}
	}
	return true
}

// entityIs reports whether an entity of the wanted type spans exactly sp.
func (ev *sentEval) entityIs(sp span, want string) bool {
	s := ev.s
	for e := range s.EntType {
		if int(s.EntL[e]) == sp.l && int(s.EntR[e]) == sp.r && nlp.GPEAlias(want, s.Dict.Str(s.EntType[e])) {
			return true
		}
	}
	return false
}

// enumerate is the nested-loop evaluation over enumerable variables with
// eager constraint checking, followed by derivation (subtrees, alignment of
// skipped variables) and final validation.
func (ev *sentEval) enumerate(i int) {
	if i == len(ev.enum) {
		ev.deriveAndEmit()
		return
	}
	v := ev.enum[i]
	for bi := range ev.cands[v.slot] {
		ev.work[v.slot] = ev.cands[v.slot][bi]
		ev.workIdx[v.slot] = int32(bi)
		ev.workSet.set(v.slot)
		if ev.constraintsOK(v.slot) {
			ev.enumerate(i + 1)
		}
	}
	ev.workSet.clear(v.slot)
}

// constraintsOK checks every constraint whose two sides are both bound,
// touching the just-bound variable slot.
func (ev *sentEval) constraintsOK(justBound int) bool {
	for ci := range ev.nq.constraints {
		c := &ev.nq.constraints[ci]
		if c.aSlot != justBound && c.bSlot != justBound {
			continue
		}
		if !ev.workSet.has(c.aSlot) || !ev.workSet.has(c.bSlot) {
			continue
		}
		if !ev.checkConstraint(c.kind, ev.work[c.aSlot], ev.work[c.bSlot]) {
			return false
		}
	}
	return true
}

func (ev *sentEval) checkConstraint(kind consKind, ba, bb binding) bool {
	switch kind {
	case ckParentOf:
		return ba.tid >= 0 && bb.tid >= 0 && int(ev.s.Head[bb.tid]) == ba.tid
	case ckAncestorOf:
		return ba.tid >= 0 && bb.tid >= 0 && ev.s.IsAncestor(ba.tid, bb.tid)
	case ckInSpan:
		return !ba.sp.empty() && ba.sp.l >= bb.sp.l && ba.sp.r <= bb.sp.r
	case ckEqSpan:
		return ba.sp == bb.sp
	}
	return false
}

// deriveAndEmit computes derived variables in declaration order: subtree
// spans, then horizontal alignments (which also bind the skipped component
// variables). Skipped components are left for their span's alignment pass.
// Once every variable is bound, all constraints are re-checked and the
// assignment is appended to the emission arena.
func (ev *sentEval) deriveAndEmit() {
	copy(ev.full, ev.work)
	ev.fullSet.copyFrom(ev.workSet)
	for _, v := range ev.nq.vars {
		if ev.fullSet.has(v.slot) {
			continue
		}
		switch v.kind {
		case vkSubtree:
			if !ev.fullSet.has(v.baseSlot) {
				return
			}
			base := ev.full[v.baseSlot]
			if base.tid < 0 {
				return
			}
			ev.full[v.slot] = binding{sp: span{int(ev.s.SubL[base.tid]), int(ev.s.SubR[base.tid])}, tid: -1}
			ev.fullSet.set(v.slot)
		case vkSpan:
			if !ev.alignSpan(v) {
				return
			}
		default:
			if ev.skip[v.slot] {
				continue // bound later by its horizontal's alignment
			}
			return // enumerable var missing: empty candidate list
		}
	}
	// Every variable must be bound by now (a skipped variable whose
	// horizontal never aligned would be missing).
	for _, v := range ev.nq.vars {
		if !ev.fullSet.has(v.slot) {
			return
		}
	}
	// Final full constraint check (bindings produced by alignment were not
	// covered by the eager checks during enumeration).
	for ci := range ev.nq.constraints {
		c := &ev.nq.constraints[ci]
		if !ev.checkConstraint(c.kind, ev.full[c.aSlot], ev.full[c.bSlot]) {
			return
		}
	}
	ev.outB = append(ev.outB, ev.full...)
	if ev.trackIdx {
		ev.outIdx = append(ev.outIdx, ev.workIdx...)
	}
	ev.nout++
}

// alignSpan derives a horizontal span variable: bound components must tile
// left to right; single skipped components between two bound neighbors take
// exactly the gap, then validate (§4.3 "Align skipped variables and check
// constraints"). Bindings land in ev.full.
func (ev *sentEval) alignSpan(v *normVar) bool {
	comps := v.compSlots
	n := len(comps)
	spans := ev.alignSp[:n]
	bound := ev.alignOk[:n]
	for i, cs := range comps {
		if ev.fullSet.has(cs) {
			spans[i] = ev.full[cs].sp
			bound[i] = true
		} else {
			bound[i] = false
		}
	}
	if n == 0 || !bound[0] || !bound[n-1] {
		return false // boundary components are never skipped
	}
	// Fill gaps.
	for i := 0; i < n; i++ {
		if bound[i] {
			continue
		}
		// Neighbors must be bound (the skip plan guarantees it).
		if i == 0 || i == n-1 || !bound[i-1] || !bound[i+1] {
			return false
		}
		gap := span{l: spans[i-1].r + 1, r: spans[i+1].l - 1}
		if gap.r < gap.l-1 {
			return false // negative gap: neighbors overlap
		}
		cv := ev.nq.vars[comps[i]]
		if !ev.validateDerived(cv, gap) {
			return false
		}
		spans[i] = gap
		bound[i] = true
		ev.full[comps[i]] = binding{sp: gap, tid: derivedTid(cv, gap)}
		ev.fullSet.set(comps[i])
	}
	// Adjacency of the full tiling.
	pos := spans[0].l
	for i := 0; i < n; i++ {
		if spans[i].l != pos && !(spans[i].empty() && spans[i].l == pos) {
			return false
		}
		if !spans[i].empty() {
			pos = spans[i].r + 1
		}
	}
	ev.full[v.slot] = binding{sp: span{spans[0].l, spans[n-1].r}, tid: -1}
	ev.fullSet.set(v.slot)
	return true
}

func derivedTid(v *normVar, sp span) int {
	if v.kind == vkNode && sp.length() == 1 {
		return sp.l
	}
	return -1
}

// validateDerived checks that a gap span is a legitimate binding for a
// skipped variable — the validation step that restores soundness after the
// index-level approximation.
func (ev *sentEval) validateDerived(v *normVar, sp span) bool {
	switch v.kind {
	case vkElastic:
		if sp.r < sp.l-1 {
			return false
		}
		return ev.elasticOK(v, sp)
	case vkNode:
		return sp.length() == 1 && ev.nodeMatchHas(v, sp.l)
	case vkTokens:
		return sp.length() == len(v.wordIDs) && seqAt(ev.s.Lower, sp.l, v.wordIDs)
	case vkEntity:
		return ev.entityIs(sp, v.etype)
	case vkSubtree:
		if !ev.fullSet.has(v.baseSlot) {
			return false
		}
		base := ev.full[v.baseSlot]
		if base.tid < 0 {
			return false
		}
		return sp.l == int(ev.s.SubL[base.tid]) && sp.r == int(ev.s.SubR[base.tid])
	}
	return false
}
