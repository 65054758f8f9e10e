package engine

import (
	"strings"
	"sync"

	"repro/internal/decompose"
	"repro/internal/embed"
	"repro/internal/koko/index"
	"repro/internal/koko/lang"
	"repro/internal/nlp"
)

// globalCache memoizes document-independent condition confidences across
// the whole run (similarTo, contains, matches, ...). Owned by the Engine and
// shared across documents and across concurrent runs, hence the mutex.
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
// per-worker scratch: built once per blockWorker and reset per document, with
// every map cleared and every buffer kept.
//
// A value arrives as the token span it is bound to. Its mentions — every
// occurrence of the span's lowered word sequence in the document — start at
// postings of the sequence's first word in the shard's word index (keyed by
// the lowered form); the value is never rendered and re-tokenised for that.
// Spans with the same sequence share one mention group, and document-scoped
// confidences are cached per (condition, group).
type aggregator struct {
	ix     *index.Index
	dict   *index.Dict // the dictionary the documents' word ids resolve in
	model  *embed.Model
	dicts  map[string]map[string]bool
	global *globalCache

	// Per-document state, emptied by reset.
	first    int32                      // sid of docSents[0]
	docSents []index.Sent               // by sid - first; empty where a sentence failed to load
	clauses  map[int][]decompose.Clause // sid -> canonical clauses
	groupOf  map[spanKey]int32          // span -> its mention group
	groups   []mentionRange             // group -> its run of ments
	ments    []mention                  // (sentence, position) order within a group
	conf     map[confKey]float64

	cursors []*wordCursor // by word id: the probed words' cursors, kept across documents

	words []uint32 // spanWords scratch
	// mergedID, when set, resolves merged mark runs in spanWords instead of
	// the sentence's dictionary (a test interns them to read them back).
	mergedID func(string) uint32
}

// wordCursor walks one word's postings forward and holds those of the
// document that last asked.
type wordCursor struct {
	list  index.PostingList
	cur   index.ListCursor
	first int32 // first sid of occ's document; -1 before any
	occ   []index.Posting
}

// mention is one occurrence of a value: sentence docSents[si], tokens l..r.
type mention struct {
	si   int32
	l, r int
}

type mentionRange struct{ lo, hi int32 }

// spanKey identifies a candidate span within the document.
type spanKey struct{ sid, l, r int32 }

type confKey struct{ cond, group int32 }

// spanValue is a candidate value: the span it is bound to and, once a
// condition asked for it, its rendered string (an empty span renders "").
type spanValue struct {
	s   *index.Sent
	sp  span
	str string
}

func (v *spanValue) text() string {
	if v.str == "" && !v.sp.empty() {
		v.str = v.s.Text(v.sp.l, v.sp.r)
	}
	return v.str
}

func newAggregator(ix *index.Index, dict *index.Dict, model *embed.Model, dicts map[string]map[string]bool, global *globalCache) *aggregator {
	return &aggregator{
		ix:      ix,
		dict:    dict,
		model:   model,
		dicts:   dicts,
		global:  global,
		clauses: map[int][]decompose.Clause{},
		groupOf: map[spanKey]int32{},
		conf:    map[confKey]float64{},
	}
}

// reset points the aggregator at a new document, whose sentences are
// docSents with ids from first on.
func (ag *aggregator) reset(first int, docSents []index.Sent) {
	ag.first, ag.docSents = int32(first), docSents
	clear(ag.clauses)
	clear(ag.groupOf)
	clear(ag.conf)
	ag.groups, ag.ments = ag.groups[:0], ag.ments[:0]
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
			s = ag.adjacency(ms, c.argIDs, true)
		case lang.CondPrecededBy:
			s = ag.adjacency(ms, c.argIDs, false)
		case lang.CondNear:
			s = ag.near(ms, c.argIDs)
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
	Variable     string
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
			Variable:     sc.name,
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
		ok = fullMatch(c.re, value)
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

// occurrences returns the postings of word id w in the current document,
// in (sid, tid) order. Documents arrive in ascending sid order, so the word's
// cursor seeks forward from the previous one, skipping blocks by their
// bounds without decoding them; only a re-evaluation starts it over. A word
// is resolved to its posting list once per query.
func (ag *aggregator) occurrences(w uint32) []index.Posting {
	if w == index.NoID {
		return nil
	}
	if int(w) >= len(ag.cursors) {
		ag.cursors = append(ag.cursors, make([]*wordCursor, int(w)+1-len(ag.cursors))...)
	}
	wc := ag.cursors[w]
	if wc == nil {
		wc = &wordCursor{list: ag.ix.WordList(ag.dict.Str(w)), first: -1}
		wc.cur.Reset(wc.list)
		ag.cursors[w] = wc
	}
	if wc.first != ag.first {
		if ag.first < wc.first {
			wc.cur.Reset(wc.list)
		}
		wc.first, wc.occ = ag.first, wc.occ[:0]
		end := ag.first + int32(len(ag.docSents))
		for wc.cur.SeekSid(ag.first); wc.cur.Valid() && wc.cur.Sid() < end; wc.cur.NextRun() {
			wc.occ = append(wc.occ, wc.cur.Run()...)
		}
	}
	return wc.occ
}

// seqAt reports whether the word-id sequence occurs in lower (a sentence's
// lowered-word column) starting at pos.
func seqAt(lower []uint32, pos int, words []uint32) bool {
	if pos < 0 || pos+len(words) > len(lower) {
		return false
	}
	for j, w := range words {
		if lower[pos+j] != w {
			return false
		}
	}
	return true
}

// spanWords returns the lowered word sequence the value rendered from s[sp]
// tokenises to, as dictionary ids: the span's lowered words, except that
// Sent.Text glues a punctuation token to its predecessor and the tokenizer
// reads a glued run of one mark ("." or "-") back as a single token, so such
// neighbours merge here too (into the merged string's id, index.NoID when no
// token has it). The result lives in scratch reused by the next call.
func (ag *aggregator) spanWords(s *index.Sent, sp span) []uint32 {
	w := ag.words[:0]
	last := ""
	for i := sp.l; i <= sp.r; i++ {
		lower := s.Dict.Str(s.Lower[i])
		if i > sp.l && s.POS[i] == index.IDPunct && sameMarkRun(last, lower) {
			last += lower
			if ag.mergedID != nil {
				w[len(w)-1] = ag.mergedID(last)
			} else {
				w[len(w)-1] = s.Dict.ID(last)
			}
			continue
		}
		last = lower
		w = append(w, s.Lower[i])
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
// occurrence of its word sequence in the document, found by probing the
// word index with the sequence's first word. A new group is registered under
// each of its mentions as well as the span that asked, so a value recurring
// across the document is collected and scored once.
func (ag *aggregator) group(s *index.Sent, sp span) int32 {
	key := spanKey{int32(s.ID), int32(sp.l), int32(sp.r)}
	if g, ok := ag.groupOf[key]; ok {
		return g
	}
	words := ag.spanWords(s, sp)
	g := int32(len(ag.groups))
	lo := len(ag.ments)
	for _, p := range ag.occurrences(words[0]) {
		si := p.Sid - ag.first
		if seqAt(ag.docSents[si].Lower, int(p.Tid), words) {
			r := p.Tid + int32(len(words)) - 1
			ag.ments = append(ag.ments, mention{si: si, l: int(p.Tid), r: int(r)})
			ag.groupOf[spanKey{p.Sid, p.Tid, r}] = g
		}
	}
	ag.groups = append(ag.groups, mentionRange{int32(lo), int32(len(ag.ments))})
	ag.groupOf[key] = g
	return g
}

// adjacency implements x "s" (followed=true) and "s" x (followed=false):
// boolean — some mention of the value is immediately followed/preceded by
// the literal string.
func (ag *aggregator) adjacency(ms []mention, arg []uint32, followed bool) float64 {
	if len(arg) == 0 {
		return 0
	}
	for _, m := range ms {
		pos := m.r + 1
		if !followed {
			pos = m.l - len(arg)
		}
		if seqAt(ag.docSents[m.si].Lower, pos, arg) {
			return 1
		}
	}
	return 0
}

// near implements the proximity condition: 1/(1+distance) for the closest
// co-occurrence of the value and the string within a sentence, maximized
// over the document. Mentions and the string's first word's postings are
// both in (sentence, position) order, so one forward walk of the postings
// serves every mention.
func (ag *aggregator) near(ms []mention, arg []uint32) float64 {
	if len(arg) == 0 {
		return 0
	}
	best := 0.0
	occ := ag.occurrences(arg[0])
	for _, m := range ms {
		for len(occ) > 0 && occ[0].Sid-ag.first < m.si {
			occ = occ[1:]
		}
		for i := 0; i < len(occ) && occ[i].Sid-ag.first == m.si; i++ {
			pos := int(occ[i].Tid)
			if !seqAt(ag.docSents[m.si].Lower, pos, arg) {
				continue
			}
			// Tokens between the string and the mention; 0 if they overlap.
			dist := max(0, pos-m.r-1, m.l-pos-len(arg))
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
		s := &ag.docSents[ms[i].si]
		clauses := ag.decompose(s)
		best := 0.0
		for di, seq := range d.seqIDs {
			ki := d.expansions[di].Score
			var sum float64
			for _, cl := range clauses {
				// The distance between the mention and the matched terms
				// damps the confidence (§2.2: "the distance between x and
				// the terms similar to descriptor affects the confidence").
				bestProx := 0.0
				for _, m := range ms[i:j] {
					if ok, dist := clauseContainsDirectional(&cl, s.Lower, seq, m, right); ok {
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

func (ag *aggregator) decompose(s *index.Sent) []decompose.Clause {
	if cl, ok := ag.clauses[s.ID]; ok {
		return cl
	}
	cl := decompose.Decompose(s)
	ag.clauses[s.ID] = cl
	return cl
}

// clauseContainsDirectional checks that the clause contains the word-id
// sequence in order, entirely after (right) or before (left) the mention,
// and returns the token distance between the mention boundary and the
// nearest matched term. lower is the sentence's lowered-word column.
func clauseContainsDirectional(cl *decompose.Clause, lower []uint32, seq []uint32, m mention, right bool) (bool, int) {
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
		if i < len(seq) && lower[tid] == seq[i] {
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
