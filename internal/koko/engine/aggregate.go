package engine

import (
	"strings"
	"sync"

	"repro/internal/decompose"
	"repro/internal/embed"
	"repro/internal/koko/lang"
	"repro/internal/nlp"
)

// globalCache memoizes document-independent condition confidences across
// the whole run (similarTo, contains, matches, ...). Owned by the Engine and
// shared across documents — and, when Workers > 1, across goroutines, hence
// the mutex.
type globalCache struct {
	mu sync.Mutex
	m  map[globalKey]float64
}

type globalKey struct {
	kind       lang.SatKind
	arg, value string
}

func newGlobalCache() *globalCache { return &globalCache{m: map[globalKey]float64{}} }

func (g *globalCache) get(key globalKey) (float64, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	v, ok := g.m[key]
	return v, ok
}

func (g *globalCache) put(key globalKey, v float64) {
	g.mu.Lock()
	g.m[key] = v
	g.mu.Unlock()
}

// aggregator evaluates satisfying and excluding conditions for candidate
// values, aggregating evidence across a document (§4.4). Like sentEval it is
// per-worker scratch: built once per docWorker and reset per document, with
// every map cleared and every buffer kept.
//
// A value arrives as the token span it is bound to. Its mentions — every
// occurrence of the span's lowercase token sequence in the document — are
// found by comparing Token.Lower sequences through the token index; the
// value is never rendered and re-tokenised for that. Spans with the same
// sequence share one mention group, and document-scoped confidences are
// cached per (condition, group).
type aggregator struct {
	model  *embed.Model
	dicts  map[string]map[string]bool
	rc     *reCache
	global *globalCache

	// Per-document state, emptied by reset.
	docSents []*nlp.Sentence
	clauses  map[int][]decompose.Clause // sid -> canonical clauses
	groupOf  map[spanKey]int32          // span -> its mention group
	groups   []mentionRange             // group -> its run of ments
	ments    []mention                  // (sentence, position) order within a group
	conf     map[confKey]float64

	// The token index, built on the first mention probe of a document: occ
	// holds every token occurrence, threaded into one chain per lowercase
	// token in (sentence, position) order; tokHead maps a token to the
	// 1-based index of its first occurrence.
	tokHead map[string]int32
	occ     []tokOcc

	words []string // spanWords scratch
}

type tokOcc struct{ si, pos, next int32 }

type mention struct {
	sent *nlp.Sentence
	si   int32 // index into docSents
	l, r int
}

type mentionRange struct{ lo, hi int32 }

// spanKey identifies a candidate span within the document.
type spanKey struct{ sid, l, r int32 }

type confKey struct{ cond, group int32 }

// spanValue is a candidate value: the span it is bound to and, once a
// condition or the output asked for it, its rendered string (an empty span
// renders "").
type spanValue struct {
	s   *nlp.Sentence
	sp  span
	str string
}

func (v *spanValue) text() string {
	if v.str == "" && !v.sp.empty() {
		v.str = v.s.Text(v.sp.l, v.sp.r)
	}
	return v.str
}

func newAggregator(model *embed.Model, dicts map[string]map[string]bool, rc *reCache, global *globalCache) *aggregator {
	return &aggregator{
		model:   model,
		dicts:   dicts,
		rc:      rc,
		global:  global,
		clauses: map[int][]decompose.Clause{},
		groupOf: map[spanKey]int32{},
		conf:    map[confKey]float64{},
		tokHead: map[string]int32{},
	}
}

// reset points the aggregator at a new document.
func (ag *aggregator) reset(docSents []*nlp.Sentence) {
	ag.docSents = docSents
	clear(ag.clauses)
	clear(ag.groupOf)
	clear(ag.conf)
	clear(ag.tokHead)
	ag.groups, ag.ments, ag.occ = ag.groups[:0], ag.ments[:0], ag.occ[:0]
}

// clauseScore computes the satisfying-clause score of a value: the weighted
// sum of per-condition confidences, each aggregated over the document.
func (ag *aggregator) clauseScore(sc *normClause, v *spanValue) float64 {
	var total float64
	for i := range sc.conds {
		c := &sc.conds[i]
		total += c.Weight * ag.confidence(c, v)
	}
	return total
}

// excluded reports whether an excluding condition holds for the value
// (conditions over no variable are skipped by the caller).
func (ag *aggregator) excluded(c *normCond, v *spanValue) bool {
	return ag.confidence(c, v) > 0
}

// confidence computes m_i(e) for one condition (§4.4.1). Document-
// independent conditions read the rendered value and are memoized across
// the whole run; document-scoped ones read the value's mentions and are
// memoized per mention group.
func (ag *aggregator) confidence(c *normCond, v *spanValue) float64 {
	if v.sp.empty() {
		return 0
	}
	switch c.Kind {
	case lang.CondContains, lang.CondMentions, lang.CondMatches, lang.CondSimilarTo, lang.CondInDict:
		key := globalKey{c.Kind, c.Arg, v.text()}
		s, ok := ag.global.get(key)
		if !ok {
			s = ag.valueConfidence(c, key.value)
			ag.global.put(key, s)
		}
		return s
	}
	g := ag.group(v.s, v.sp)
	key := confKey{c.id, g}
	s, ok := ag.conf[key]
	if !ok {
		ms := ag.ments[ag.groups[g].lo:ag.groups[g].hi]
		switch c.Kind {
		case lang.CondFollowedBy:
			s = adjacency(ms, c.args, true)
		case lang.CondPrecededBy:
			s = adjacency(ms, c.args, false)
		case lang.CondNear:
			s = ag.near(ms, c.args)
		case lang.CondDescRight:
			s = ag.descriptorScore(ms, c.desc, true)
		case lang.CondDescLeft:
			s = ag.descriptorScore(ms, c.desc, false)
		}
		ag.conf[key] = s
	}
	return s
}

// CondEvidence is one row of an extraction explanation: a condition with
// its confidence, weight, and contribution to the clause score.
type CondEvidence struct {
	Var          string
	Condition    string
	Weight       float64
	Confidence   float64
	Contribution float64
}

// explainClause breaks a satisfying-clause score into per-condition
// evidence (the paper's §5 debuggability claim).
func (ag *aggregator) explainClause(sc *normClause, v *spanValue) []CondEvidence {
	out := make([]CondEvidence, 0, len(sc.conds))
	for i := range sc.conds {
		c := &sc.conds[i]
		conf := ag.confidence(c, v)
		out = append(out, CondEvidence{
			Var:          sc.name,
			Condition:    c.Display(),
			Weight:       c.Weight,
			Confidence:   conf,
			Contribution: c.Weight * conf,
		})
	}
	return out
}

// valueConfidence evaluates a document-independent condition on the rendered
// value.
func (ag *aggregator) valueConfidence(c *normCond, value string) float64 {
	ok := false
	switch c.Kind {
	case lang.CondContains:
		// Whole-token containment: "chocolate ice cream" contains "ice"
		// but not "choc". Case-sensitive, matching the paper's separate
		// "Cafe"/"Café" conditions.
		ok = containsTokens(value, c.Arg)
	case lang.CondMentions:
		ok = strings.Contains(value, c.Arg)
	case lang.CondMatches:
		ok = ag.rc.fullMatch(c.Arg, value)
	case lang.CondSimilarTo:
		if ag.model == nil {
			return 0
		}
		return ag.model.PhraseSimilarity(lowerFields(value), c.args)
	case lang.CondInDict:
		ok = ag.dicts[c.Arg][strings.ToLower(value)]
	}
	if ok {
		return 1
	}
	return 0
}

// firstOcc returns the 1-based index in occ of the word's first occurrence
// in the document (0 if it has none), building the token index on first use.
// Walking sentences and tokens backwards and pushing each occurrence on the
// front of its word's chain leaves every chain in forward order.
func (ag *aggregator) firstOcc(word string) int32 {
	if len(ag.occ) == 0 {
		for si := len(ag.docSents) - 1; si >= 0; si-- {
			toks := ag.docSents[si].Tokens
			for pos := len(toks) - 1; pos >= 0; pos-- {
				w := toks[pos].Lower
				ag.occ = append(ag.occ, tokOcc{si: int32(si), pos: int32(pos), next: ag.tokHead[w]})
				ag.tokHead[w] = int32(len(ag.occ))
			}
		}
	}
	return ag.tokHead[word]
}

// seqAt reports whether the word sequence occurs in s starting at pos.
func seqAt(s *nlp.Sentence, pos int, words []string) bool {
	if pos < 0 || pos+len(words) > len(s.Tokens) {
		return false
	}
	for j, w := range words {
		if s.Tokens[pos+j].Lower != w {
			return false
		}
	}
	return true
}

// spanWords returns the lowercase token sequence the value rendered from
// s[sp] tokenises to: Token.Lower over the span, except that Sentence.Text
// glues a punctuation token to its predecessor and the tokenizer reads a
// glued run of one mark ("." or "-") back as a single token, so such
// neighbours merge here too. The result lives in scratch reused by the next
// call.
func (ag *aggregator) spanWords(s *nlp.Sentence, sp span) []string {
	w := ag.words[:0]
	for i := sp.l; i <= sp.r; i++ {
		t := &s.Tokens[i]
		if i > sp.l && t.POS == nlp.PosPunct && sameMarkRun(w[len(w)-1], t.Lower) {
			w[len(w)-1] += t.Lower
			continue
		}
		w = append(w, t.Lower)
	}
	ag.words = w
	return w
}

// sameMarkRun reports whether a and b are both runs of the same mark, "." or
// "-" — the only tokens the tokenizer extends over adjacent characters.
func sameMarkRun(a, b string) bool {
	if a == "" || (a[0] != '.' && a[0] != '-') {
		return false
	}
	return strings.Trim(a, a[:1]) == "" && strings.Trim(b, a[:1]) == ""
}

// group returns the mention group of the value bound to s[sp]: every
// occurrence of its token sequence in the document, found by probing the
// token index with the sequence's first word. A new group is registered under
// each of its mentions as well as the span that asked, so a value recurring
// across the document is collected and scored once.
func (ag *aggregator) group(s *nlp.Sentence, sp span) int32 {
	key := spanKey{int32(s.ID), int32(sp.l), int32(sp.r)}
	if g, ok := ag.groupOf[key]; ok {
		return g
	}
	words := ag.spanWords(s, sp)
	g := int32(len(ag.groups))
	lo := len(ag.ments)
	for i := ag.firstOcc(words[0]); i != 0; i = ag.occ[i-1].next {
		oc := ag.occ[i-1]
		if ms := ag.docSents[oc.si]; seqAt(ms, int(oc.pos), words) {
			r := oc.pos + int32(len(words)) - 1
			ag.ments = append(ag.ments, mention{sent: ms, si: oc.si, l: int(oc.pos), r: int(r)})
			ag.groupOf[spanKey{int32(ms.ID), oc.pos, r}] = g
		}
	}
	ag.groups = append(ag.groups, mentionRange{int32(lo), int32(len(ag.ments))})
	ag.groupOf[key] = g
	return g
}

// adjacency implements x "s" (followed=true) and "s" x (followed=false):
// boolean — some mention of the value is immediately followed/preceded by
// the literal string.
func adjacency(ms []mention, arg []string, followed bool) float64 {
	if len(arg) == 0 {
		return 0
	}
	for _, m := range ms {
		pos := m.r + 1
		if !followed {
			pos = m.l - len(arg)
		}
		if seqAt(m.sent, pos, arg) {
			return 1
		}
	}
	return 0
}

// near implements the proximity condition: 1/(1+distance) for the closest
// co-occurrence of the value and the string within a sentence, maximized
// over the document. Mentions and the string's occurrence chain are both in
// (sentence, position) order, so one forward walk of the chain serves every
// mention.
func (ag *aggregator) near(ms []mention, arg []string) float64 {
	if len(arg) == 0 {
		return 0
	}
	best := 0.0
	cur := ag.firstOcc(arg[0])
	for _, m := range ms {
		for cur != 0 && ag.occ[cur-1].si < m.si {
			cur = ag.occ[cur-1].next
		}
		for i := cur; i != 0 && ag.occ[i-1].si == m.si; i = ag.occ[i-1].next {
			pos := int(ag.occ[i-1].pos)
			if !seqAt(m.sent, pos, arg) {
				continue
			}
			var dist int
			end := pos + len(arg) - 1
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
}

// descriptorScore implements x [[d]] / [[d]] x: the descriptor is expanded
// (done once at normalization), each sentence containing a mention is
// decomposed into canonical clauses, and
//
//	conf(s) = max_i Σ_j match(d_i, c_j),  match(d_i, c_j) = k_i · l_j
//
// when d_i's word sequence occurs in c_j on the required side of the
// mention; the document score is the sum over sentences (§4.4.1(c)).
func (ag *aggregator) descriptorScore(ms []mention, d *descriptor, right bool) float64 {
	// Mentions arrive in (sentence, position) order, so per-sentence groups
	// are consecutive runs — no map grouping needed.
	var total float64
	for i := 0; i < len(ms); {
		j := i + 1
		for j < len(ms) && ms[j].si == ms[i].si {
			j++
		}
		s := ms[i].sent
		clauses := ag.decompose(s)
		best := 0.0
		for di, seq := range d.seqs {
			ki := d.expansions[di].Score
			var sum float64
			for _, cl := range clauses {
				// The distance between the mention and the matched terms
				// damps the confidence (§2.2: "the distance between x and
				// the terms similar to descriptor affects the confidence").
				bestProx := 0.0
				for _, m := range ms[i:j] {
					if ok, dist := clauseContainsDirectional(&cl, seq, m, right); ok {
						if prox := 1.0 / float64(1+dist); prox > bestProx {
							bestProx = prox
						}
					}
				}
				sum += ki * cl.Score * bestProx
			}
			if sum > best {
				best = sum
			}
		}
		total += best
		i = j
	}
	return total
}

func (ag *aggregator) decompose(s *nlp.Sentence) []decompose.Clause {
	if cl, ok := ag.clauses[s.ID]; ok {
		return cl
	}
	cl := decompose.Decompose(s)
	ag.clauses[s.ID] = cl
	return cl
}

// clauseContainsDirectional checks that the clause contains the word
// sequence in order, entirely after (right) or before (left) the mention,
// and returns the token distance between the mention boundary and the
// nearest matched term.
func clauseContainsDirectional(cl *decompose.Clause, seq []string, m mention, right bool) (bool, int) {
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
		// cl.Words excludes punctuation while cl.Tokens includes it; match
		// against the underlying sentence token instead.
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
		return true, max0(first - m.r - 1)
	}
	return true, max0(m.l - last - 1)
}

func max0(v int) int {
	if v < 0 {
		return 0
	}
	return v
}

// containsTokens reports whole-token containment, case-sensitive.
func containsTokens(value, arg string) bool {
	vt := nlp.Tokenize(value)
	at := nlp.Tokenize(arg)
	if len(at) == 0 || len(at) > len(vt) {
		return false
	}
	for i := 0; i+len(at) <= len(vt); i++ {
		ok := true
		for j := range at {
			if vt[i+j] != at[j] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func lowerFields(s string) []string {
	return strings.Fields(strings.ToLower(s))
}

func lowerTokens(s string) []string {
	toks := nlp.Tokenize(s)
	for i := range toks {
		toks[i] = strings.ToLower(toks[i])
	}
	return toks
}
