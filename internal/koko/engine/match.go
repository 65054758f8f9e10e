package engine

import (
	"regexp"
	"strings"

	"repro/internal/koko/index"
	"repro/internal/koko/lang"
	"repro/internal/nlp"
)

// compileRegexp compiles a query pattern once per query. Patterns are
// anchored: "matches" is a full-string match, as in the paper's examples
// ("[Ll]a Marzocco" matches the whole entity name). A malformed pattern
// compiles to nil, which matches nothing.
func compileRegexp(pattern string) *regexp.Regexp {
	re, err := regexp.Compile("^(?:" + pattern + ")$")
	if err != nil {
		return nil
	}
	return re
}

// fullMatch reports whether a compiled pattern matches s; nil matches
// nothing.
func fullMatch(re *regexp.Regexp, s string) bool {
	return re != nil && re.MatchString(s)
}

// stepClass is the decomposition class of a path-step label (§4.2.1): parse
// label, POS tag, word, or wildcard.
type stepClass int

const (
	scWild stepClass = iota
	scParse
	scPOS
	scWord
)

// classifyStep determines which index a step's label addresses. A step's
// word may also come from a [text=...] condition (quoted labels are parsed
// that way), and a POS constraint may come from [@pos=...].
func classifyStep(st lang.PathStep) (class stepClass, canon string) {
	l := st.Label
	switch {
	case l == "*" || l == "":
		return scWild, "*"
	case nlp.IsParseLabel(l):
		return scParse, nlp.NormalizeLabel(l)
	case nlp.IsPOSTag(l):
		return scPOS, nlp.NormalizePOS(l)
	case nlp.IsEntityType(l):
		// Entity-typed labels inside paths are validated, not indexed.
		return scWild, "*"
	default:
		return scWord, strings.ToLower(l)
	}
}

// stepWord returns the word constraint of a step ("" if none): either a
// word-class label or a text condition.
func stepWord(st lang.PathStep) string {
	if cls, canon := classifyStep(st); cls == scWord {
		return canon
	}
	for _, c := range st.Conds {
		if c.Key == "text" {
			return strings.ToLower(c.Value)
		}
	}
	return ""
}

// stepPOS returns the POS constraint of a step ("" if none).
func stepPOS(st lang.PathStep) string {
	if cls, canon := classifyStep(st); cls == scPOS {
		return canon
	}
	for _, c := range st.Conds {
		if c.Key == "pos" {
			return nlp.NormalizePOS(c.Value)
		}
	}
	return ""
}

// stepMatchesToken checks a compiled step's label and all bracket conditions
// against a concrete token (the validation-side test). Everything the query
// fixes was resolved to dictionary ids by compilePath and bind; this only
// compares.
func stepMatchesToken(s *index.Sent, tid int, st *compiledStep) bool {
	switch st.class {
	case scParse:
		if s.Label[tid] != st.id {
			return false
		}
	case scPOS:
		if s.POS[tid] != st.id {
			return false
		}
	case scWord:
		if s.Lower[tid] != st.id {
			return false
		}
	case scWild:
		if st.etype != "" && !entityTypeAt(s, tid, st.etype) {
			return false
		}
	}
	for i := range st.conds {
		c := &st.conds[i]
		switch c.key {
		case "pos":
			if s.POS[tid] != c.id {
				return false
			}
		case "text":
			if s.Lower[tid] != c.id {
				return false
			}
		case "etype":
			if !entityTypeAt(s, tid, c.value) {
				return false
			}
		case "regex":
			if !fullMatch(c.re, s.Dict.Str(s.Surface[tid])) {
				return false
			}
		}
	}
	return true
}

// entityTypeAt reports whether token tid lies in an entity of the wanted
// type (nlp.GPEAlias semantics).
func entityTypeAt(s *index.Sent, tid int, want string) bool {
	e := s.EntityID[tid]
	return e >= 0 && nlp.GPEAlias(want, s.Dict.Str(s.EntType[e]))
}

// MatchPath returns the token ids of a parsed sentence whose root path
// matches the absolute path pattern, in ascending order: sound ground-truth
// path matching for harness code (index-effectiveness experiments). It
// converts the sentence to columns, compiles the steps against them and runs
// the evaluator's own matcher.
func MatchPath(s *nlp.Sentence, steps []lang.PathStep) []int {
	v := index.SentOf(s)
	cs := compilePath(steps)
	bindSteps(cs, v.Dict)
	var out []int
	for _, t := range (&pathMatcher{}).match(&v, cs, nil) {
		out = append(out, int(t))
	}
	return out
}

// pathMatcher checks that a token "satisfies the path" (§4.3) bottom-up:
// only tokens that pass the last step are tested, and a token passes step i
// when its head chain passes the earlier steps — "/" is the parent, "//" any
// proper ancestor, and a "/" first step is the root. memo is the reusable
// per-(token, step) table of the pm* bits below; it holds the "//" ancestor
// search too, so a match is O(tokens × steps) even on deep chains, and a
// warm matcher allocates nothing. The heads must form one tree, as the
// columns always hold them.
type pathMatcher struct {
	s     *index.Sent
	steps []compiledStep
	memo  []uint8
}

const (
	pmKnown    = 1 << iota // ok(t, i) is decided
	pmOK                   // the path up to step i ends at t
	pmAncKnown             // anc(t, i) is decided
	pmAnc                  // some proper ancestor of t passes ok(·, i)
)

// match appends the ids of s's tokens matching the whole path to dst,
// ascending.
func (pm *pathMatcher) match(s *index.Sent, steps []compiledStep, dst []int32) []int32 {
	n, m := s.Len(), len(steps)
	if n == 0 || m == 0 {
		return dst
	}
	if cap(pm.memo) < n*m {
		pm.memo = make([]uint8, n*m)
	} else {
		pm.memo = pm.memo[:n*m]
		clear(pm.memo)
	}
	pm.s, pm.steps = s, steps
	for t := 0; t < n; t++ {
		if pm.ok(t, m-1) {
			dst = append(dst, int32(t))
		}
	}
	return dst
}

// ok reports whether the path's steps 0..i match, in order, a chain ending
// at token t.
func (pm *pathMatcher) ok(t, i int) bool {
	c := &pm.memo[t*len(pm.steps)+i]
	if *c&pmKnown == 0 {
		*c |= pmKnown
		st, p := &pm.steps[i], int(pm.s.Head[t])
		if stepMatchesToken(pm.s, t, st) && (i == 0 && (st.desc || t == pm.s.Root) ||
			i > 0 && st.desc && pm.anc(t, i-1) ||
			i > 0 && !st.desc && p >= 0 && pm.ok(p, i-1)) {
			*c |= pmOK
		}
	}
	return *c&pmOK != 0
}

// anc reports whether a proper ancestor of t passes ok(·, i). It climbs
// until an ancestor passes or one whose answer is memoized, then records the
// answer on every token it climbed past, so each token is climbed past once
// per step.
func (pm *pathMatcher) anc(t, i int) bool {
	m, heads := len(pm.steps), pm.s.Head
	found, p := false, int(heads[t])
	for ; p >= 0; p = int(heads[p]) {
		if pm.ok(p, i) {
			found = true
			break
		}
		if c := pm.memo[p*m+i]; c&pmAncKnown != 0 {
			found = c&pmAnc != 0
			break
		}
	}
	for x := t; x != p; x = int(heads[x]) {
		pm.memo[x*m+i] |= pmAncKnown
		if found {
			pm.memo[x*m+i] |= pmAnc
		}
	}
	return found
}
