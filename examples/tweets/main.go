// Tweets: the appendix A.2 queries extracting sports teams and facilities
// from short single-sentence documents — the regime where cross-sentence
// evidence aggregation cannot help (§6.1).
//
//	go run ./examples/tweets
package main

import (
	"fmt"
	"log"

	"repro/koko"
)

func main() {
	tweets := []string{
		"River Tigers vs Bay Sharks tonight at 7 pm.",
		"go North Falcons beat the Iron Wolves.",
		"Hill Rovers to host the soccer final this weekend.",
		"we are at Riverside Stadium for the show.",
		"went to Harbor Museum with the kids today.",
		"meet me at Union Station at 8 pm.",
		"traffic was terrible downtown today at noon.",
	}
	eng := koko.NewEngine(koko.NewCorpus(nil, tweets), nil)

	teams, err := eng.Query(`
		extract x:Entity from "tweets" if ()
		satisfying x
		(x [["to host"]] {0.9}) or
		(x "vs" {0.9}) or
		("vs" x {0.9}) or
		(x [["soccer"]] {0.9}) or
		("go" x {0.9})
		with threshold 0.5`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("sports teams (Figure 11 query):")
	printDistinct(teams)

	facilities, err := eng.Query(`
		extract x:Entity from "tweets" if ()
		satisfying x
		("at" x {1}) or
		([["went to"]] x {0.8}) or
		([["go to"]] x {0.8})
		with threshold 0.5
		excluding
		(str(x) contains "pm") or
		(str(x) mentions "@") or
		(str(x) contains "today")`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("facilities (Figure 10 query):")
	printDistinct(facilities)
}

func printDistinct(res *koko.Result) {
	if len(res.Tuples) == 0 {
		log.Fatal("query returned no tuples")
	}
	seen := map[string]bool{}
	for _, t := range res.Tuples {
		if !seen[t.Values[0]] {
			seen[t.Values[0]] = true
			fmt.Printf("  %s (score %.2f)\n", t.Values[0], t.Scores["x"])
		}
	}
	fmt.Println()
}
