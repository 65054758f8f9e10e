package engine

import (
	"sort"
	"strconv"

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

// sentEval evaluates the extract clause over one sentence (§4.3: skip plan,
// nested loops, alignment, validation). It is a reusable per-worker scratch:
// all slices below are allocated once per worker, reset per sentence, and
// shared with nothing — Workers>1 runs allocate almost nothing per sentence.
type sentEval struct {
	nq     *normQuery
	rc     *reCache
	gspOff bool
	s      *nlp.Sentence

	skip  []bool      // slot -> skipped by the plan this sentence
	cands [][]binding // slot -> candidate bindings (buffers reused)

	// nodeTids caches the sorted matchPath result per node-variable
	// slot for O(log n) validation of skipped node variables; nodeDone marks
	// which slots are valid for the current sentence.
	nodeTids [][]int32
	nodeDone []bool

	// path-matching scratch (matchPath): the memo table and match bitmap.
	pathSeen    []bool
	pathMatched []bool

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

	// outB is the flat emission arena: assignment i is
	// outB[i*numVars : (i+1)*numVars]. Consumed per sentence, reused.
	outB []binding
	nout int
}

// newSentEval builds the reusable scratch for one worker.
func newSentEval(nq *normQuery, rc *reCache, gspOff bool) *sentEval {
	n := len(nq.vars)
	ev := &sentEval{
		nq:       nq,
		rc:       rc,
		gspOff:   gspOff,
		skip:     make([]bool, n),
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

// prepare resets the scratch for sentence sid and generates the skip plan
// (unless GSP is off). cc supplies the DPLI binding estimates; a cursor
// with no data (RunNaive) makes every non-elastic cost 0.
func (ev *sentEval) prepare(s *nlp.Sentence, cc *countCursor, sid int32) {
	ev.s = s
	for i := range ev.skip {
		ev.skip[i] = false
		ev.nodeDone[i] = false
	}
	ev.workSet.reset()
	ev.outB = ev.outB[:0]
	ev.nout = 0
	if !ev.gspOff {
		ev.generateSkipPlan(cc, sid)
	}
}

// extract runs candidate building and the nested loops. It returns the
// number of emitted assignments, which live in the scratch arena (read them
// with out) and stay valid until the next prepare call. With a plan, loops
// run in plan order and the emissions are re-sorted into declaration order,
// so the output sequence is identical either way.
func (ev *sentEval) extract() int {
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
	if ev.trackIdx && ev.nout > 1 {
		ev.restoreDeclOrder()
	}
	return ev.nout
}

// restoreDeclOrder re-sorts the emission arena into the sequence a
// declaration-order enumeration would have produced: ascending by the
// candidate indices of the enumerable variables taken in declaration order.
// The planned loops emit exactly the same assignment set (each assignment is
// uniquely identified by its candidate indices), so this sort makes planned
// and written-order runs byte-identical.
func (ev *sentEval) restoreDeclOrder() {
	n := len(ev.nq.vars)
	perm := ev.sortPerm[:0]
	for i := 0; i < ev.nout; i++ {
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
	need := ev.nout * n
	if cap(ev.outScratch) < need {
		ev.outScratch = make([]binding, need)
	}
	dst := ev.outScratch[:need]
	for di, si := range perm {
		copy(dst[di*n:(di+1)*n], ev.outB[si*n:(si+1)*n])
	}
	ev.outB, ev.outScratch = dst, ev.outB
}

// evalSentence is prepare + extract in one call, for callers that don't
// split phase timing (tests).
func (ev *sentEval) evalSentence(s *nlp.Sentence, cc *countCursor, sid int32) int {
	ev.prepare(s, cc, sid)
	return ev.extract()
}

// out returns emitted assignment i (valid until the next evalSentence).
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
	t := len(ev.s.Tokens)
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
	t := len(s.Tokens)
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
		for ei := range s.Entities {
			e := &s.Entities[ei]
			if nlp.GPEAlias(v.etype, e.Type) {
				list = append(list, binding{sp: span{e.L, e.R}, tid: -1})
			}
		}
	case vkTokens:
		for i := 0; i+len(v.words) <= t; i++ {
			if seqAt(s, i, v.words) {
				list = append(list, binding{sp: span{i, i + len(v.words) - 1}, tid: -1})
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
	ev.nodeTids[v.slot] = ev.matchPath(v.steps, ev.nodeTids[v.slot][:0])
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

// matchPath is MatchPath against the scratch buffers: the memo table and
// match bitmap are reused across sentences and the matching tids are
// appended to dst, ascending.
func (ev *sentEval) matchPath(steps []compiledStep, dst []int32) []int32 {
	s := ev.s
	n := len(s.Tokens)
	if n == 0 || len(steps) == 0 {
		return dst
	}
	m := len(steps)
	need := (n + 1) * (m + 1)
	if cap(ev.pathSeen) < need {
		ev.pathSeen = make([]bool, need)
	} else {
		ev.pathSeen = ev.pathSeen[:need]
		for i := range ev.pathSeen {
			ev.pathSeen[i] = false
		}
	}
	if cap(ev.pathMatched) < n {
		ev.pathMatched = make([]bool, n)
	} else {
		ev.pathMatched = ev.pathMatched[:n]
		for i := range ev.pathMatched {
			ev.pathMatched[i] = false
		}
	}
	matchPathVisit(ev.s, steps, ev.rc, ev.pathSeen, ev.pathMatched, -1, 0)
	for i, ok := range ev.pathMatched {
		if ok {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

// elasticOK checks an elastic span's bracket conditions.
func (ev *sentEval) elasticOK(v *normVar, sp span) bool {
	for _, c := range v.conds {
		switch c.Key {
		case "min":
			if n, err := strconv.Atoi(c.Value); err == nil && sp.length() < n {
				return false
			}
		case "max":
			if n, err := strconv.Atoi(c.Value); err == nil && sp.length() > n {
				return false
			}
		case "regex":
			if sp.empty() || !ev.rc.fullMatch(c.Value, ev.s.Text(sp.l, sp.r)) {
				return false
			}
		case "etype":
			if sp.empty() {
				return false
			}
			ok := false
			for ei := range ev.s.Entities {
				e := &ev.s.Entities[ei]
				if e.L == sp.l && e.R == sp.r && nlp.GPEAlias(nlp.CanonicalEntityType(c.Value), e.Type) {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
	}
	return true
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
		return ba.tid >= 0 && bb.tid >= 0 && ev.s.Tokens[bb.tid].Head == ba.tid
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
			tok := &ev.s.Tokens[base.tid]
			ev.full[v.slot] = binding{sp: span{tok.SubL, tok.SubR}, tid: -1}
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
		if sp.length() != len(v.words) {
			return false
		}
		for j, w := range v.words {
			if ev.s.Tokens[sp.l+j].Lower != w {
				return false
			}
		}
		return true
	case vkEntity:
		for ei := range ev.s.Entities {
			e := &ev.s.Entities[ei]
			if e.L == sp.l && e.R == sp.r && nlp.GPEAlias(v.etype, e.Type) {
				return true
			}
		}
		return false
	case vkSubtree:
		if !ev.fullSet.has(v.baseSlot) {
			return false
		}
		base := ev.full[v.baseSlot]
		if base.tid < 0 {
			return false
		}
		tok := &ev.s.Tokens[base.tid]
		return sp.l == tok.SubL && sp.r == tok.SubR
	}
	return false
}
