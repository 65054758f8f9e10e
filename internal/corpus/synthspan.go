package corpus

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/koko/index"
	"repro/internal/koko/lang"
	"repro/internal/nlp"
)

// GenSyntheticSpanOver generates the SyntheticSpan benchmark (§6.2.3) over
// a pre-built corpus from any generator in this package: perSetting
// span-variable queries each with 1, 3, and 5 atoms (0, 1, and 2 skippable
// elastic spans respectively) — the paper's 300 queries at perSetting 100.
// Anchors are sampled from real sentences — tokens in surface order
// rendered as a word atom, a parse-label path, or a POS path — so every
// query has matches and varying selectivity.
func GenSyntheticSpanOver(c *index.Corpus, seed int64, perSetting int) []SpanQuery {
	r := rand.New(rand.NewSource(seed))
	var out []SpanQuery
	for _, atoms := range []int{1, 3, 5} {
		for k := 0; k < perSetting; k++ {
			q := sampleSpanQuery(c, r, atoms)
			if q == nil {
				continue
			}
			out = append(out, SpanQuery{Atoms: atoms, Query: q})
		}
	}
	return out
}

// SpanQuery is one SyntheticSpan benchmark query.
type SpanQuery struct {
	Atoms int // 1, 3, or 5
	Query *lang.Query
}

func sampleSpanQuery(c *index.Corpus, r *rand.Rand, atoms int) *lang.Query {
	nAnchors := (atoms + 1) / 2 // 1 -> 1, 3 -> 2, 5 -> 3
	for try := 0; try < 300; try++ {
		s := &c.Sentences[r.Intn(len(c.Sentences))]
		var content []int
		for i := range s.Tokens {
			if s.Tokens[i].POS != nlp.PosPunct {
				content = append(content, i)
			}
		}
		if len(content) < nAnchors+2 {
			continue
		}
		// Pick nAnchors increasing positions.
		perm := r.Perm(len(content))[:nAnchors]
		sortInts(perm)
		var anchors []string
		ok := true
		for _, pi := range perm {
			tid := content[pi]
			a := renderAnchor(s, tid, r)
			if a == "" {
				ok = false
				break
			}
			anchors = append(anchors, a)
		}
		if !ok {
			continue
		}
		expr := strings.Join(anchors, " + ^ + ")
		src := fmt.Sprintf("extract x:Str from bench if (/ROOT:{ x = %s })", expr)
		q, err := lang.Parse(src)
		if err != nil {
			continue
		}
		return q
	}
	return nil
}

// renderAnchor renders one sampled token as an atom: its word (50%), a
// descendant parse-label path (30%), or a POS path (20%).
func renderAnchor(s *nlp.Sentence, tid int, r *rand.Rand) string {
	tok := &s.Tokens[tid]
	switch p := r.Float64(); {
	case p < 0.5:
		if strings.ContainsAny(tok.Lower, `"\`) {
			return ""
		}
		return fmt.Sprintf("%q", tok.Lower)
	case p < 0.8:
		if tok.Label == "" || tok.Label == "root" {
			return "//" + "verb" // the root is always a plausible verb anchor
		}
		return "//" + tok.Label
	default:
		return "//" + tok.POS
	}
}
