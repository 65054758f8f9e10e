// Wikipedia: the three §6.3 scale-up queries (Chocolate / Title /
// DateOfBirth) over a generated Wikipedia-like corpus, demonstrating how
// selectivity drives both result counts and where evaluation time goes.
//
//	go run ./examples/wikipedia
package main

import (
	"errors"
	"fmt"
	"log"

	"repro/internal/corpus"
	"repro/koko"
)

func main() {
	// 2000 generated articles: biographies (with birth dates and
	// occasional nicknames), places, and the rare chocolate-type article.
	gen, stats := corpus.GenWikipedia(2000, 42)
	var names, texts []string
	for d := 0; d < gen.NumDocs(); d++ {
		first, end := gen.DocSentences(d)
		text := ""
		for sid := first; sid < end; sid++ {
			text += gen.Sentence(sid).String() + " "
		}
		names = append(names, gen.Docs[d].Name)
		texts = append(texts, text)
	}
	eng := koko.NewEngine(koko.NewCorpus(names, texts), nil)
	fmt.Printf("corpus: %d articles (chocolate in %d, nicknames in %d, birth dates in %d)\n\n",
		stats.Articles, stats.Chocolate, stats.Title, stats.DateOfBirth)

	queries := []struct{ name, src string }{
		{"Chocolate (low selectivity)", `
			extract c:Entity from wiki.article if (
			/ROOT:{ v = //verb, o = v//pobj[text="chocolate"], s = v/nsubj } (s) in (c))
			satisfying v (str(v) ~ "is" {1})`},
		{"Title (medium selectivity)", `
			extract a:Person, b:Str from wiki.article if (
			/ROOT:{ v = //"called", p = v/propn, b = p.subtree, c = a + ^ + v + ^ + b })`},
		{"DateOfBirth (high selectivity)", `
			extract a:Person, b:Date from wiki.article if (/ROOT:{v = verb})
			satisfying v (str(v) ~ "born" {1})`},
	}
	for _, q := range queries {
		res, err := eng.Query(q.src)
		if err == nil && len(res.Tuples) == 0 {
			err = errors.New(q.name + ": query returned no tuples")
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n  %d tuples from %d candidate sentences in %v\n",
			q.name, len(res.Tuples), res.Candidates, res.Elapsed)
		for i, t := range res.Tuples {
			if i >= 3 {
				fmt.Printf("  ... and %d more\n", len(res.Tuples)-3)
				break
			}
			fmt.Printf("  %v\n", t.Values)
		}
		fmt.Println()
	}
}
