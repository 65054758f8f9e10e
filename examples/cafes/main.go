// Cafes: evidence aggregation across a document (the paper's flagship use
// case, §2.2/§6.1). Cafe names in blog posts are rare-mention entities: no
// single sentence proves an entity is a cafe, but weighted evidence from
// multiple paraphrased mentions ("serves up delicious cappuccinos", "hired
// the star barista") accumulates past a threshold.
//
//	go run ./examples/cafes
package main

import (
	"errors"
	"fmt"
	"log"
	"sort"

	"repro/koko"
)

func main() {
	blog := "Gravity Beans opened downtown last month. " +
		"The owners say Gravity Beans serves up delicious cappuccinos every morning. " +
		"Gravity Beans recently hired the star barista from Portland. " +
		"We also stopped by Ritual Works, a cafe near the old mill. " +
		"The shop pulls shots on a La Marzocco machine. " +
		"Portland produces and sells the best coffee."
	c := koko.NewCorpus([]string{"blog-post"}, []string{blog})
	eng := koko.NewEngine(c, &koko.Options{
		Dicts: map[string][]string{"Location": {"Portland", "Seattle"}},
		// A domain ontology guides descriptor expansion (§4.4.1(a)).
		Ontology: map[string][]string{"coffee": {"cappuccinos", "cortados"}},
	})

	res, err := eng.Query(`
		extract x:Entity from "blog" if ()
		satisfying x
		(str(x) contains "Cafe" {1}) or
		(x ", a cafe" {1}) or
		(x [["serves coffee"]] {0.4}) or
		(x [["hired barista"]] {0.4})
		with threshold 0.35
		excluding
		(str(x) matches "[Ll]a Marzocco") or
		(str(x) in dict("Location"))`)
	if err == nil && len(res.Tuples) == 0 {
		err = errors.New("query returned no tuples")
	}
	if err != nil {
		log.Fatal(err)
	}

	type hit struct {
		name  string
		score float64
	}
	best := map[string]float64{}
	for _, t := range res.Tuples {
		if s := t.Scores["x"]; s > best[t.Values[0]] {
			best[t.Values[0]] = s
		}
	}
	var hits []hit
	for n, s := range best {
		hits = append(hits, hit{n, s})
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].score > hits[j].score })

	fmt.Println("cafes extracted by aggregated evidence:")
	for _, h := range hits {
		fmt.Printf("  %-18s score %.3f\n", h.name, h.score)
	}
	fmt.Println("\nnote: 'La Marzocco' (espresso-machine brand) and 'Portland'")
	fmt.Println("(location) were suppressed by the excluding clause; no single")
	fmt.Println("sentence said Gravity Beans is a cafe — the evidence is aggregated.")
}
