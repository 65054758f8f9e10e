// Quickstart: the paper's Example 2.1 on the Figure 1 sentence.
//
// The query combines a dependency-tree pattern (a verb with a direct object
// whose subtree contains "delicious") with a span output (the object's
// subtree) and an entity constraint — the combination no prior declarative
// extraction language supported in one query.
//
//	go run ./examples/quickstart
package main

import (
	"errors"
	"fmt"
	"log"

	"repro/koko"
)

func main() {
	c := koko.NewCorpus(nil, []string{
		"I ate a chocolate ice cream, which was delicious, and also ate a pie. " +
			"Anna ate some delicious cheesecake that she bought at a grocery store.",
	})
	eng := koko.NewEngine(c, nil)

	st := eng.Stats()
	fmt.Printf("indexed %d sentences: %d words, %d entities, PL hierarchy %d nodes (%.2f%% merged)\n\n",
		c.NumSentences(), st.Words, st.Entities, st.PLNodes, 100*st.PLCompression)

	res, err := eng.Query(`
		extract e:Entity, d:Str from input.txt if
		(/ROOT:{
			a = //verb,
			b = a/dobj,
			c = b//"delicious",
			d = (b.subtree)
		} (b) in (e))`)
	if err == nil && len(res.Tuples) == 0 {
		err = errors.New("query returned no tuples")
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("extract pairs (entity, object subtree) where the object is described as delicious:")
	for _, t := range res.Tuples {
		fmt.Printf("  e=%q  d=%q  (sentence %d)\n", t.Values[0], t.Values[1], t.SentenceID)
	}
	fmt.Printf("\n%d candidate sentences after index pruning, %d matched, %v total\n",
		res.Candidates, res.Matched, res.Elapsed)
}
