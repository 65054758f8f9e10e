package engine

import (
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/decompose"
	"repro/internal/embed"
	"repro/internal/koko/index"
	"repro/internal/koko/lang"
	"repro/internal/nlp"
)

// This file freezes the seed (pre-slot) extract-clause evaluator: the
// map-based assignment representation and the allocating per-sentence
// evaluation it used. It exists purely as the reference semantics for the
// differential tests — the hot path must emit byte-identical assignments,
// in the same order, as this implementation.

// reCache is the seed's engine-wide regular-expression cache: every pattern
// compiled once, anchored, under one mutex, never pruned. The engine now
// compiles a query's patterns with the query; the reference keeps the cache.
type reCache struct {
	mu sync.Mutex
	m  map[string]*regexp.Regexp
}

func newRECache() *reCache { return &reCache{m: map[string]*regexp.Regexp{}} }

func (rc *reCache) fullMatch(pattern, s string) bool {
	rc.mu.Lock()
	re, ok := rc.m[pattern]
	if !ok {
		re, _ = regexp.Compile("^(?:" + pattern + ")$")
		rc.m[pattern] = re
	}
	rc.mu.Unlock()
	return re != nil && re.MatchString(s)
}

// refAssignment is the seed assignment representation: variable name →
// binding.
type refAssignment map[string]binding

// refSentEval is the seed per-sentence evaluator state, rebuilt from
// scratch for every sentence exactly as the seed engine did.
type refSentEval struct {
	nq      *normQuery
	s       *nlp.Sentence
	rc      *reCache
	skip    map[string]bool
	cands   map[string][]binding
	nodeSet map[string]map[int]bool
	out     []refAssignment
	gspOff  bool
}

// refEvalSentence runs the seed evaluator over one sentence and returns all
// satisfying assignments in emission order.
func refEvalSentence(nq *normQuery, s *nlp.Sentence, rc *reCache, countOf func(name string) int, gspOff bool) []refAssignment {
	ev := &refSentEval{
		nq:      nq,
		s:       s,
		rc:      rc,
		skip:    map[string]bool{},
		cands:   map[string][]binding{},
		nodeSet: map[string]map[int]bool{},
		gspOff:  gspOff,
	}
	if !gspOff {
		ev.generateSkipPlan(countOf)
	}
	if !ev.buildCandidates() {
		return nil
	}
	var enum []*normVar
	for _, v := range nq.vars {
		if ev.isEnumerable(v) {
			enum = append(enum, v)
		}
	}
	ev.enumerate(enum, 0, refAssignment{})
	return ev.out
}

func (ev *refSentEval) isEnumerable(v *normVar) bool {
	if v.kind == vkSubtree || v.kind == vkSpan {
		return false
	}
	return !ev.skip[v.name]
}

func (ev *refSentEval) generateSkipPlan(countOf func(string) int) {
	t := len(ev.s.Tokens)
	for _, h := range ev.nq.horizontals {
		type vc struct {
			name string
			cost float64
		}
		costs := make([]vc, 0, len(h.comps))
		for _, cn := range h.comps {
			v := ev.nq.byName[cn]
			var c float64
			switch v.kind {
			case vkElastic:
				c = float64(t) * float64(t+1) / 2
			case vkSubtree:
				if countOf != nil {
					c = float64(countOf(v.base))
				}
			default:
				if countOf != nil {
					c = float64(countOf(cn))
				}
			}
			costs = append(costs, vc{name: cn, cost: c})
		}
		sort.Slice(costs, func(i, j int) bool {
			if costs[i].cost != costs[j].cost {
				return costs[i].cost > costs[j].cost
			}
			return costs[i].name < costs[j].name
		})
		pos := map[string]int{}
		for i, cn := range h.comps {
			pos[cn] = i
		}
		for _, c := range costs {
			i := pos[c.name]
			if i == 0 || i == len(h.comps)-1 {
				continue
			}
			vl, vr := h.comps[i-1], h.comps[i+1]
			if !ev.skip[vl] && !ev.skip[vr] {
				ev.skip[c.name] = true
			}
		}
	}
}

func (ev *refSentEval) buildCandidates() bool {
	s := ev.s
	t := len(s.Tokens)
	for _, v := range ev.nq.vars {
		if !ev.isEnumerable(v) {
			continue
		}
		var list []binding
		switch v.kind {
		case vkNode:
			for _, tid := range ev.nodeMatches(v) {
				list = append(list, binding{sp: span{tid, tid}, tid: tid})
			}
		case vkEntity:
			for ei := range s.Entities {
				e := &s.Entities[ei]
				if nlp.GPEAlias(v.etype, e.Type) {
					list = append(list, binding{sp: span{e.L, e.R}, tid: -1})
				}
			}
		case vkTokens:
			for _, pos := range findTokenSeq(s, v.words) {
				list = append(list, binding{sp: span{pos, pos + len(v.words) - 1}, tid: -1})
			}
		case vkElastic:
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
		if len(list) == 0 {
			return false
		}
		ev.cands[v.name] = list
	}
	return true
}

func (ev *refSentEval) nodeMatches(v *normVar) []int {
	if set, ok := ev.nodeSet[v.name]; ok {
		out := make([]int, 0, len(set))
		for tid := range set {
			out = append(out, tid)
		}
		sort.Ints(out)
		return out
	}
	tids := refMatchPathTokens(ev.s, v.path, ev.rc)
	set := make(map[int]bool, len(tids))
	for _, tid := range tids {
		set[tid] = true
	}
	ev.nodeSet[v.name] = set
	return tids
}

func (ev *refSentEval) nodeMatchSet(v *normVar) map[int]bool {
	ev.nodeMatches(v)
	return ev.nodeSet[v.name]
}

func (ev *refSentEval) elasticOK(v *normVar, sp span) bool {
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

func (ev *refSentEval) enumerate(vars []*normVar, i int, a refAssignment) {
	if i == len(vars) {
		ev.deriveAndEmit(a)
		return
	}
	v := vars[i]
	for _, b := range ev.cands[v.name] {
		a[v.name] = b
		if ev.constraintsOK(a, v.name) {
			ev.enumerate(vars, i+1, a)
		}
		delete(a, v.name)
	}
}

func (ev *refSentEval) constraintsOK(a refAssignment, justBound string) bool {
	for _, c := range ev.nq.constraints {
		if c.a != justBound && c.b != justBound {
			continue
		}
		ba, okA := a[c.a]
		bb, okB := a[c.b]
		if !okA || !okB {
			continue
		}
		if !ev.checkConstraint(c, ba, bb) {
			return false
		}
	}
	return true
}

func (ev *refSentEval) checkConstraint(c normConstraint, ba, bb binding) bool {
	switch c.kind {
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

func (ev *refSentEval) deriveAndEmit(a refAssignment) {
	full := refAssignment{}
	for k, v := range a {
		full[k] = v
	}
	for _, v := range ev.nq.vars {
		if _, bound := full[v.name]; bound {
			continue
		}
		switch v.kind {
		case vkSubtree:
			base, ok := full[v.base]
			if !ok || base.tid < 0 {
				return
			}
			tok := &ev.s.Tokens[base.tid]
			full[v.name] = binding{sp: span{tok.SubL, tok.SubR}, tid: -1}
		case vkSpan:
			if !ev.alignSpan(v, full) {
				return
			}
		default:
			if ev.skip[v.name] {
				continue
			}
			return
		}
	}
	for _, v := range ev.nq.vars {
		if _, ok := full[v.name]; !ok {
			return
		}
	}
	for _, c := range ev.nq.constraints {
		ba, okA := full[c.a]
		bb, okB := full[c.b]
		if !okA || !okB || !ev.checkConstraint(c, ba, bb) {
			return
		}
	}
	ev.out = append(ev.out, full)
}

func (ev *refSentEval) alignSpan(v *normVar, a refAssignment) bool {
	comps := v.comps
	n := len(comps)
	spans := make([]span, n)
	bound := make([]bool, n)
	for i, cn := range comps {
		if b, ok := a[cn]; ok {
			spans[i] = b.sp
			bound[i] = true
		}
	}
	if n == 0 || !bound[0] || !bound[n-1] {
		return false
	}
	for i := 0; i < n; i++ {
		if bound[i] {
			continue
		}
		if i == 0 || i == n-1 || !bound[i-1] || !bound[i+1] {
			return false
		}
		gap := span{l: spans[i-1].r + 1, r: spans[i+1].l - 1}
		if gap.r < gap.l-1 {
			return false
		}
		cv := ev.nq.byName[comps[i]]
		if !ev.validateDerived(cv, gap, a) {
			return false
		}
		spans[i] = gap
		bound[i] = true
		a[comps[i]] = binding{sp: gap, tid: derivedTid(cv, gap)}
	}
	pos := spans[0].l
	for i := 0; i < n; i++ {
		if spans[i].l != pos && !(spans[i].empty() && spans[i].l == pos) {
			return false
		}
		if !spans[i].empty() {
			pos = spans[i].r + 1
		}
	}
	a[v.name] = binding{sp: span{spans[0].l, spans[n-1].r}, tid: -1}
	return true
}

func (ev *refSentEval) validateDerived(v *normVar, sp span, a refAssignment) bool {
	switch v.kind {
	case vkElastic:
		if sp.r < sp.l-1 {
			return false
		}
		return ev.elasticOK(v, sp)
	case vkNode:
		return sp.length() == 1 && ev.nodeMatchSet(v)[sp.l]
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
		base, ok := a[v.base]
		if !ok || base.tid < 0 {
			return false
		}
		tok := &ev.s.Tokens[base.tid]
		return sp.l == tok.SubL && sp.r == tok.SubR
	}
	return false
}

// --- frozen seed path matcher -------------------------------------------
//
// The seed matched uncompiled lang.PathStep values, re-classifying the step
// and re-normalising its conditions for every token. The compiled matcher
// (compilePath + stepMatchesToken) must accept exactly the same tokens.

func refStepMatchesToken(s *nlp.Sentence, tid int, st lang.PathStep, rc *reCache) bool {
	tok := &s.Tokens[tid]
	cls, canon := classifyStep(st)
	switch cls {
	case scParse:
		if nlp.NormalizeLabel(tok.Label) != canon {
			return false
		}
	case scPOS:
		if tok.POS != canon {
			return false
		}
	case scWord:
		if tok.Lower != canon {
			return false
		}
	case scWild:
		if nlp.IsEntityType(st.Label) && st.Label != "*" && st.Label != "" {
			e := s.EntityAt(tid)
			if e == nil || !nlp.GPEAlias(nlp.CanonicalEntityType(st.Label), e.Type) {
				return false
			}
		}
	}
	for _, c := range st.Conds {
		switch c.Key {
		case "pos":
			if tok.POS != nlp.NormalizePOS(c.Value) {
				return false
			}
		case "text":
			if tok.Lower != strings.ToLower(c.Value) {
				return false
			}
		case "etype":
			e := s.EntityAt(tid)
			if e == nil || !nlp.GPEAlias(nlp.CanonicalEntityType(c.Value), e.Type) {
				return false
			}
		case "regex":
			if !rc.fullMatch(c.Value, tok.Text) {
				return false
			}
		}
	}
	return true
}

func refMatchPathTokens(s *nlp.Sentence, steps []lang.PathStep, rc *reCache) []int {
	n, m := len(s.Tokens), len(steps)
	if n == 0 || m == 0 {
		return nil
	}
	seen := make([]bool, (n+1)*(m+1))
	matched := make([]bool, n)
	var visit func(tok, step int)
	visit = func(tok, step int) {
		idx := (tok+1)*(m+1) + step
		if seen[idx] {
			return
		}
		seen[idx] = true
		if step == m {
			if tok >= 0 {
				matched[tok] = true
			}
			return
		}
		st := steps[step]
		next := s.Children(tok)
		if tok < 0 {
			next = nil
			if r := s.Root(); r >= 0 {
				next = []int{r}
			}
		}
		for _, c := range next {
			if refStepMatchesToken(s, c, st, rc) {
				visit(c, step+1)
			}
			if st.Desc {
				visit(c, step)
			}
		}
	}
	visit(-1, 0)
	var out []int
	for i, ok := range matched {
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// findTokenSeq returns every start position where the lowercase word
// sequence occurs contiguously in the sentence.
func findTokenSeq(s *nlp.Sentence, words []string) []int {
	if len(words) == 0 {
		return nil
	}
	var out []int
	n := len(s.Tokens)
	for i := 0; i+len(words) <= n; i++ {
		ok := true
		for j, w := range words {
			if s.Tokens[i+j].Lower != w {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// --- frozen seed aggregator ---------------------------------------------
//
// The seed aggregator took a candidate value as its rendered string: it
// re-tokenised and lower-cased the string to find the value's mentions by
// scanning the document, and re-tokenised the condition argument on every
// call. One was built per document. The span-based aggregator must produce
// the same confidences, scores, and evidence.

type refAggregator struct {
	model    *embed.Model
	dicts    map[string]map[string]bool
	rc       *reCache
	docSents []*nlp.Sentence
}

// tokensOfValue splits an output value back into lowercase tokens.
func tokensOfValue(v string) []string {
	toks := nlp.Tokenize(v)
	for i := range toks {
		toks[i] = strings.ToLower(toks[i])
	}
	return toks
}

// refMention is the seed's mention: a sentence and a token span in it.
type refMention struct {
	sent *nlp.Sentence
	si   int32
	l, r int
}

func (ag *refAggregator) valueMentions(value string) []refMention {
	words := tokensOfValue(value)
	var ms []refMention
	for si, s := range ag.docSents {
		for _, pos := range findTokenSeq(s, words) {
			ms = append(ms, refMention{sent: s, si: int32(si), l: pos, r: pos + len(words) - 1})
		}
	}
	return ms
}

func (ag *refAggregator) confidence(c *normCond, value string) float64 {
	if value == "" {
		return 0
	}
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	switch c.Kind {
	case lang.CondContains:
		return b2f(containsTokens(value, c.Arg))
	case lang.CondMentions:
		return b2f(strings.Contains(value, c.Arg))
	case lang.CondMatches:
		return b2f(ag.rc.fullMatch(c.Arg, value))
	case lang.CondSimilarTo:
		if ag.model == nil {
			return 0
		}
		return ag.model.PhraseSimilarity(lowerFields(value), lowerFields(c.Arg))
	case lang.CondInDict:
		d := ag.dicts[c.Arg]
		return b2f(d != nil && d[strings.ToLower(value)])
	case lang.CondFollowedBy, lang.CondPrecededBy:
		arg := tokensOfValue(c.Arg)
		if len(arg) == 0 {
			return 0
		}
		for _, m := range ag.valueMentions(value) {
			start := m.r + 1
			if c.Kind == lang.CondPrecededBy {
				start = m.l - len(arg)
			}
			for _, pos := range findTokenSeq(m.sent, arg) {
				if pos == start {
					return 1
				}
			}
		}
		return 0
	case lang.CondNear:
		arg := tokensOfValue(c.Arg)
		best := 0.0
		for _, m := range ag.valueMentions(value) {
			for _, pos := range findTokenSeq(m.sent, arg) {
				dist, end := 0, pos+len(arg)-1
				switch {
				case pos > m.r:
					dist = pos - m.r - 1
				case end < m.l:
					dist = m.l - end - 1
				}
				if s := 1.0 / float64(1+dist); s > best {
					best = s
				}
			}
		}
		return best
	case lang.CondDescRight, lang.CondDescLeft:
		return ag.descriptorScore(value, c.desc, c.Kind == lang.CondDescRight)
	}
	return 0
}

func (ag *refAggregator) descriptorScore(value string, d *descriptor, right bool) float64 {
	bySent := map[int32][]refMention{}
	var order []int32
	for _, m := range ag.valueMentions(value) {
		if _, ok := bySent[m.si]; !ok {
			order = append(order, m.si)
		}
		bySent[m.si] = append(bySent[m.si], m)
	}
	var total float64
	for _, si := range order {
		sv := index.SentOf(ag.docSents[si])
		clauses := decompose.Decompose(&sv)
		best := 0.0
		for di, seq := range d.seqs {
			var sum float64
			for _, cl := range clauses {
				bestProx := 0.0
				for _, m := range bySent[si] {
					if ok, dist := refClauseContainsDirectional(&cl, seq, m, right); ok {
						if prox := 1.0 / float64(1+dist); prox > bestProx {
							bestProx = prox
						}
					}
				}
				sum += d.expansions[di].Score * cl.Score * bestProx
			}
			if sum > best {
				best = sum
			}
		}
		total += best
	}
	return total
}

// refClauseContainsDirectional is the seed's directional clause test over
// lowered word strings.
func refClauseContainsDirectional(cl *decompose.Clause, seq []string, m refMention, right bool) (bool, int) {
	if len(seq) == 0 {
		return false, 0
	}
	i := 0
	first, last := -1, -1
	for _, tid := range cl.Tokens {
		if right && tid <= m.r {
			continue
		}
		if !right && tid >= m.l {
			break
		}
		if i < len(seq) && m.sent.Tokens[tid].Lower == seq[i] {
			if i == 0 {
				first = tid
			}
			last = tid
			i++
		}
	}
	if i < len(seq) {
		return false, 0
	}
	if right {
		return true, max(0, first-m.r-1)
	}
	return true, max(0, m.l-last-1)
}

// refFinishTuple is the seed finishTuple: render every value, score each
// satisfying clause on the rendered string, then apply excluding conditions.
func refFinishTuple(nq *normQuery, s *nlp.Sentence, doc int, a refAssignment, ag *refAggregator, explain bool) (Tuple, bool) {
	value := func(name string) string {
		b := a[name]
		if b.sp.empty() {
			return ""
		}
		return s.Text(b.sp.l, b.sp.r)
	}
	t := Tuple{SentenceID: s.ID, Document: doc, Values: make([]string, len(nq.outputs))}
	for i, o := range nq.outputs {
		t.Values[i] = value(o.Name)
	}
	if len(nq.satisfying) > 0 {
		t.Scores = map[string]float64{}
		for i := range nq.satisfying {
			sc := &nq.satisfying[i]
			val := value(sc.name)
			var score float64
			for j := range sc.conds {
				score += sc.conds[j].Weight * ag.confidence(&sc.conds[j], val)
			}
			t.Scores[sc.name] = score
			if score < sc.threshold {
				return t, false
			}
			if explain {
				for j := range sc.conds {
					c := &sc.conds[j]
					conf := ag.confidence(c, val)
					t.Evidence = append(t.Evidence, CondEvidence{
						Variable: sc.name, Condition: c.Display(), Weight: c.Weight,
						Confidence: conf, Contribution: c.Weight * conf,
					})
				}
			}
		}
	}
	for i := range nq.excluding {
		c := &nq.excluding[i]
		if c.Var != "" && ag.confidence(c, value(c.Var)) > 0 {
			return t, false
		}
	}
	return t, true
}
