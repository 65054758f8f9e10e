// Package ike implements the IKE baseline (Dalvi et al., AKBC 2016) at the
// fidelity the paper's comparison requires: a pattern language over token
// sequences with noun-phrase captures and distributional-similarity atoms
// ("phrase" ~ N matches the phrase or any of its N most similar phrases).
// IKE operates strictly within single sentences — it "only considers single
// sentences and cannot aggregate partial evidence" (§6.1), which is the
// behaviour responsible for its gap to KOKO on multi-mention corpora.
package ike

import (
	"fmt"
	"strings"

	"repro/internal/embed"
	"repro/internal/koko/index"
	"repro/internal/nlp"
)

// AtomKind discriminates pattern atoms.
type AtomKind int

const (
	AtomPhrase  AtomKind = iota // "cafe called" — literal token sequence
	AtomCapture                 // (NP) — capture a noun phrase
	AtomDistSim                 // ("serves coffee" ~ 10) — phrase or similar
)

// Atom is one element of an IKE pattern.
type Atom struct {
	Kind   AtomKind
	Phrase string // AtomPhrase / AtomDistSim
	N      int    // AtomDistSim expansion size
}

// Pattern is a contiguous sequence of atoms.
type Pattern struct {
	Atoms []Atom
}

// ParsePattern parses the concrete syntax used in the paper's appendix:
//
//	"cafe called" (NP)
//	(NP) ("serves coffee" ~ 10)
//	("baristas of" ~ 10) (NP)
func ParsePattern(src string) (*Pattern, error) {
	p := &Pattern{}
	s := strings.TrimSpace(src)
	for len(s) > 0 {
		s = strings.TrimLeft(s, " \t")
		if s == "" {
			break
		}
		switch {
		case strings.HasPrefix(s, "(NP)"):
			p.Atoms = append(p.Atoms, Atom{Kind: AtomCapture})
			s = s[len("(NP)"):]
		case strings.HasPrefix(s, `("`):
			end := strings.Index(s[2:], `"`)
			if end < 0 {
				return nil, fmt.Errorf("ike: unterminated phrase in %q", src)
			}
			phrase := s[2 : 2+end]
			rest := s[2+end+1:]
			var n int
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "~ %d)", &n); err != nil {
				return nil, fmt.Errorf("ike: bad distsim atom in %q", src)
			}
			close := strings.Index(rest, ")")
			p.Atoms = append(p.Atoms, Atom{Kind: AtomDistSim, Phrase: phrase, N: n})
			s = rest[close+1:]
		case strings.HasPrefix(s, `"`):
			end := strings.Index(s[1:], `"`)
			if end < 0 {
				return nil, fmt.Errorf("ike: unterminated phrase in %q", src)
			}
			p.Atoms = append(p.Atoms, Atom{Kind: AtomPhrase, Phrase: s[1 : 1+end]})
			s = s[1+end+1:]
		default:
			return nil, fmt.Errorf("ike: unexpected syntax at %q", s)
		}
	}
	if len(p.Atoms) == 0 {
		return nil, fmt.Errorf("ike: empty pattern")
	}
	return p, nil
}

// MustParse parses or panics (for embedded benchmark patterns).
func MustParse(src string) *Pattern {
	p, err := ParsePattern(src)
	if err != nil {
		panic(err)
	}
	return p
}

// Extractor runs IKE patterns over a corpus.
type Extractor struct {
	model *embed.Model
	// expCache caches distsim expansions per (phrase, n).
	expCache map[string][][]string
}

// NewExtractor builds an extractor over the paraphrase model (the stand-in
// for IKE's distributional similarity tables).
func NewExtractor(model *embed.Model) *Extractor {
	return &Extractor{model: model, expCache: map[string][][]string{}}
}

// Run executes every pattern over every sentence and returns the set of
// captured NP strings (each line of an IKE session is run separately and
// results added to a relation, per the appendix).
func (e *Extractor) Run(c *index.Corpus, patterns []*Pattern) map[string]bool {
	out := map[string]bool{}
	for sid := range c.Sentences {
		s := &c.Sentences[sid]
		for _, p := range patterns {
			for _, cap := range e.matchSentence(s, p) {
				out[cap] = true
			}
		}
	}
	return out
}

// matchSentence returns captures of pattern p in sentence s. Atoms must
// match contiguously.
func (e *Extractor) matchSentence(s *nlp.Sentence, p *Pattern) []string {
	var caps []string
	n := len(s.Tokens)
	for start := 0; start < n; start++ {
		if cap, ok := e.matchAt(s, p, 0, start, ""); ok {
			if cap != "" {
				caps = append(caps, cap)
			}
		}
	}
	return caps
}

// matchAt matches atoms[ai:] starting at token pos; returns the captured NP.
func (e *Extractor) matchAt(s *nlp.Sentence, p *Pattern, ai, pos int, cap string) (string, bool) {
	if ai == len(p.Atoms) {
		return cap, true
	}
	a := p.Atoms[ai]
	switch a.Kind {
	case AtomPhrase:
		if end, ok := matchWords(s, pos, strings.Fields(strings.ToLower(a.Phrase))); ok {
			return e.matchAt(s, p, ai+1, end, cap)
		}
	case AtomDistSim:
		for _, words := range e.expansions(a.Phrase, a.N) {
			if end, ok := matchWords(s, pos, words); ok {
				if c, ok2 := e.matchAt(s, p, ai+1, end, cap); ok2 {
					return c, true
				}
			}
		}
	case AtomCapture:
		// An NP is an entity span starting at pos.
		if ent := s.EntityAt(pos); ent != nil && ent.L == pos {
			if c, ok := e.matchAt(s, p, ai+1, ent.R+1, ent.Text); ok && cap == "" {
				return c, true
			}
		}
	}
	return "", false
}

func (e *Extractor) expansions(phrase string, n int) [][]string {
	key := fmt.Sprintf("%s|%d", phrase, n)
	if exp, ok := e.expCache[key]; ok {
		return exp
	}
	var out [][]string
	if e.model == nil {
		out = [][]string{strings.Fields(strings.ToLower(phrase))}
	} else {
		for _, sc := range e.model.Expand(phrase, n) {
			out = append(out, strings.Fields(sc.Text))
		}
	}
	e.expCache[key] = out
	return out
}

func matchWords(s *nlp.Sentence, pos int, words []string) (int, bool) {
	if pos+len(words) > len(s.Tokens) {
		return 0, false
	}
	for i, w := range words {
		if s.Tokens[pos+i].Lower != w {
			return 0, false
		}
	}
	return pos + len(words), true
}
