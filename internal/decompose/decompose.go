// Package decompose is the sentence-decomposition substrate of the KOKO
// reproduction.
//
// The paper's descriptor evaluation (§4.4.1(b)) segments each sentence into
// canonical clauses before matching expanded descriptors against them,
// reusing stage (1) of the clause-splitting of Angeli et al. / Stanford
// OpenIE: "segment a sentence into canonical clauses". This package performs
// that segmentation over the dependency trees of a shard's token columns:
// every clausal verb (the root verb, coordinated verbs, relative-clause
// verbs, clausal complements) roots one canonical clause consisting of its
// subtree minus any nested clausal subtrees; each clause carries a confidence
// score l_j that discounts subordinate material, mirroring the paper's
// (c_j, l_j) pairs.
package decompose

import (
	"sort"

	"repro/internal/koko/index"
)

// Clause is a canonical clause: a subset of a sentence's tokens with a
// confidence score.
type Clause struct {
	Root   int   // token id of the clause root
	Tokens []int // sorted token ids belonging to this clause
	Score  float64
	Words  []string // lowercase words of the clause in order (no punctuation)
}

// Clause scores by clausal relation, mirroring the intuition that material
// closer to the main assertion is stronger evidence.
const (
	scoreMain  = 1.0
	scoreConj  = 0.9
	scoreRcmod = 0.8
	scoreOther = 0.7
)

// Decompose segments a parsed sentence into canonical clauses. A sentence
// with no clausal structure yields a single clause covering every token with
// score 1.
func Decompose(s *index.Sent) []Clause {
	n := s.Len()
	if n == 0 {
		return nil
	}
	root := s.Root

	// Identify clause roots: the sentence root plus every verb attached by a
	// clausal relation.
	isClauseRoot := make([]bool, n)
	score := make([]float64, n)
	isClauseRoot[root] = true
	score[root] = scoreMain
	for i := 0; i < n; i++ {
		if i == root {
			continue
		}
		switch s.Label[i] {
		case index.IDConj:
			if s.POS[i] == index.IDVerb {
				isClauseRoot[i] = true
				score[i] = scoreConj
			}
		case index.IDRcmod:
			isClauseRoot[i] = true
			score[i] = scoreRcmod
		case index.IDXcomp:
			isClauseRoot[i] = true
			score[i] = scoreOther
		}
	}

	// Assign each token to its nearest clause-root ancestor (or itself).
	owner := make([]int, n)
	for i := 0; i < n; i++ {
		o := i
		for !isClauseRoot[o] {
			h := int(s.Head[o])
			if h < 0 {
				break
			}
			o = h
		}
		owner[i] = o
	}

	// A clause also includes the head noun its relative clause modifies
	// ("cheesecake that she bought" — the rcmod clause should contain
	// "cheesecake" so that descriptors like "bought cheesecake" can match).
	// We add the governor token of subordinate clause roots to the clause.
	extra := map[int][]int{}
	for i := 0; i < n; i++ {
		if isClauseRoot[i] && i != root {
			if h := int(s.Head[i]); h >= 0 {
				extra[i] = append(extra[i], h)
			}
		}
	}
	// Conjoined verbs share the subject of their first conjunct ("Anna ate
	// and drank": the conj clause gets "Anna").
	for i := 0; i < n; i++ {
		if isClauseRoot[i] && s.Label[i] == index.IDConj {
			h := s.Head[i]
			if h < 0 {
				continue
			}
			for c := 0; c < n; c++ { // h's children, in ascending order
				if s.Head[c] == h && s.Label[c] == index.IDNsubj {
					extra[i] = append(extra[i], c)
					// Include the whole subject NP.
					for t := int(s.SubL[c]); t <= int(s.SubR[c]); t++ {
						extra[i] = append(extra[i], t)
					}
				}
			}
		}
	}

	byRoot := map[int][]int{}
	for i := 0; i < n; i++ {
		byRoot[owner[i]] = append(byRoot[owner[i]], i)
	}
	for r, xs := range extra {
		byRoot[r] = append(byRoot[r], xs...)
	}

	roots := make([]int, 0, len(byRoot))
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Ints(roots)

	out := make([]Clause, 0, len(roots))
	for _, r := range roots {
		toks := dedupSorted(byRoot[r])
		c := Clause{Root: r, Tokens: toks, Score: score[r]}
		for _, t := range toks {
			if s.POS[t] != index.IDPunct {
				c.Words = append(c.Words, s.Dict.Str(s.Lower[t]))
			}
		}
		if len(c.Words) == 0 {
			continue
		}
		out = append(out, c)
	}
	return out
}

// ContainsSequence reports whether the clause contains the given lowercase
// word sequence in order, allowing gaps (the paper's occurrence test: "c
// contains the words y1..yq in this order and each consecutive pair may be
// separated by 0 or more words").
func (c *Clause) ContainsSequence(seq []string) bool {
	return ContainsSequence(c.Words, seq)
}

// ContainsSequence is the gap-tolerant subsequence test over word lists.
func ContainsSequence(words, seq []string) bool {
	if len(seq) == 0 {
		return false
	}
	i := 0
	for _, w := range words {
		if w == seq[i] {
			i++
			if i == len(seq) {
				return true
			}
		}
	}
	return false
}

func dedupSorted(xs []int) []int {
	sort.Ints(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}
