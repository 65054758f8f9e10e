package engine

import (
	"regexp"
	"strings"
	"sync"

	"repro/internal/koko/lang"
	"repro/internal/nlp"
)

// reCache compiles and caches the regular expressions appearing in query
// conditions. Patterns are anchored: "matches" is a full-string match, as in
// the paper's examples ("[Ll]a Marzocco" matches the whole entity name).
type reCache struct {
	mu sync.Mutex
	m  map[string]*regexp.Regexp
}

func newRECache() *reCache { return &reCache{m: map[string]*regexp.Regexp{}} }

func (rc *reCache) get(pattern string) *regexp.Regexp {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if re, ok := rc.m[pattern]; ok {
		return re
	}
	re, err := regexp.Compile("^(?:" + pattern + ")$")
	if err != nil {
		re = nil // malformed patterns match nothing
	}
	rc.m[pattern] = re
	return re
}

func (rc *reCache) fullMatch(pattern, s string) bool {
	re := rc.get(pattern)
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
// fixes was resolved by compilePath; this only compares.
func stepMatchesToken(s *nlp.Sentence, tid int, st *compiledStep, rc *reCache) bool {
	tok := &s.Tokens[tid]
	switch st.class {
	case scParse:
		if nlp.NormalizeLabel(tok.Label) != st.canon {
			return false
		}
	case scPOS:
		if tok.POS != st.canon {
			return false
		}
	case scWord:
		if tok.Lower != st.canon {
			return false
		}
	case scWild:
		if st.etype != "" {
			e := s.EntityAt(tid)
			if e == nil || !nlp.GPEAlias(st.etype, e.Type) {
				return false
			}
		}
	}
	for i := range st.conds {
		c := &st.conds[i]
		switch c.Key {
		case "pos":
			if tok.POS != c.Value {
				return false
			}
		case "text":
			if tok.Lower != c.Value {
				return false
			}
		case "etype":
			e := s.EntityAt(tid)
			if e == nil || !nlp.GPEAlias(c.Value, e.Type) {
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

// MatchPath returns the token ids of a sentence whose root path matches the
// absolute path pattern, in ascending order: sound ground-truth path
// matching for harness code (index-effectiveness experiments). It compiles
// the steps and runs the evaluator's own matcher.
func MatchPath(s *nlp.Sentence, steps []lang.PathStep) []int {
	n := len(s.Tokens)
	if n == 0 || len(steps) == 0 {
		return nil
	}
	seen := make([]bool, (n+1)*(len(steps)+1))
	matched := make([]bool, n)
	matchPathVisit(s, compilePath(steps), newRECache(), seen, matched, -1, 0)
	var out []int
	for i, ok := range matched {
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// matchPathVisit is the memoized traversal behind MatchPath and the hot
// path's scratch-backed sentEval.matchPath (§4.3's "check that b satisfies
// the path ..."): seen is the (n+1)×(m+1) memo indexed
// [(tok+1)*(m+1)+step], so wildcard-heavy patterns stay linear; matched
// collects the tokens reaching the end of the pattern. It is a plain
// recursive function (no closure) so scratch-buffer callers allocate nothing.
func matchPathVisit(s *nlp.Sentence, steps []compiledStep, rc *reCache, seen, matched []bool, tok, step int) {
	m := len(steps)
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
	st := &steps[step]
	if tok < 0 {
		if r := s.Root(); r >= 0 {
			if stepMatchesToken(s, r, st, rc) {
				matchPathVisit(s, steps, rc, seen, matched, r, step+1)
			}
			if st.desc {
				matchPathVisit(s, steps, rc, seen, matched, r, step)
			}
		}
		return
	}
	for _, c := range s.Children(tok) {
		if stepMatchesToken(s, c, st, rc) {
			matchPathVisit(s, steps, rc, seen, matched, c, step+1)
		}
		if st.desc {
			matchPathVisit(s, steps, rc, seen, matched, c, step)
		}
	}
}
