// Package odin implements the Odin-style cascaded rule runner used in the
// §6.3 runtime comparison. Odin (Valenzuela-Escárcega et al.) evaluates a
// grammar of rules in priority order, iteratively re-applying all rules
// over each document until no new matches appear — and, crucially, without
// any corpus-level index: every rule pass visits every sentence. The
// translated KOKO queries carry only extract clauses ("since Odin does not
// aggregate evidence, our translated queries contain only extract
// clauses"), and rule priorities are honoured, which the paper notes it
// supplied to help Odin.
package odin

import (
	"sort"

	"repro/internal/koko/engine"
	"repro/internal/koko/index"
	"repro/internal/koko/lang"
)

// Rule is one cascade rule: a KOKO extract clause with a priority.
type Rule struct {
	Name     string
	Query    *lang.Query
	Priority int
}

// Runner evaluates rule cascades over a corpus.
type Runner struct {
	corpus *index.Corpus
	eng    *engine.Engine
}

// New builds a runner. The engine is used purely for its sound per-sentence
// evaluator (RunNaive): no index pruning is available to Odin.
func New(c *index.Corpus, ix *index.Index) *Runner {
	return &Runner{corpus: c, eng: engine.New(c, ix, nil, engine.Options{})}
}

// Match is one extraction with the rule that produced it.
type Match struct {
	Rule   string
	Sid    int
	Values []string
}

// Run applies the cascade: rules grouped by ascending priority; within a
// priority level all rules are re-applied over the whole corpus until a
// fixpoint (no new matches). Returns all matches and the number of full
// corpus passes performed — the cost driver behind the paper's 40×/23×/1.3×
// slowdowns.
func (r *Runner) Run(rules []Rule) ([]Match, int) {
	byPrio := map[int][]Rule{}
	var prios []int
	for _, rule := range rules {
		if _, ok := byPrio[rule.Priority]; !ok {
			prios = append(prios, rule.Priority)
		}
		byPrio[rule.Priority] = append(byPrio[rule.Priority], rule)
	}
	sort.Ints(prios)

	var out []Match
	seen := map[string]bool{}
	passes := 0
	for _, p := range prios {
		for {
			grew := false
			for _, rule := range byPrio[p] {
				passes++
				res, err := r.eng.RunNaive(rule.Query)
				if err != nil {
					continue
				}
				for _, t := range res.Tuples {
					key := rule.Name + "|" + tupleKey(t)
					if !seen[key] {
						seen[key] = true
						out = append(out, Match{Rule: rule.Name, Sid: t.SentenceID, Values: t.Values})
						grew = true
					}
				}
			}
			if !grew {
				break
			}
		}
	}
	return out, passes
}

func tupleKey(t engine.Tuple) string {
	key := ""
	for _, v := range t.Values {
		key += v + "\x00"
	}
	return key
}
