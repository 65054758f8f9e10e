// Example server: runs the kokod service in-process, then acts as an HTTP
// client against it — listing corpora, validating a query, querying two
// corpora concurrently, and demonstrating the result cache on a repeat.
//
//	go run ./examples/server
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"sync"

	"repro/internal/server"
	"repro/koko"
)

func main() {
	svc := server.NewService(server.Config{MaxConcurrent: 4})
	if err := svc.Registry().Register("cafes", koko.NewEngine(koko.NewCorpus(
		[]string{"seattle.txt", "portland.txt"},
		[]string{
			"Cafe Vita serves smooth espresso daily. Cafe Juanita hired a champion barista.",
			"Cafe Umbria opened a second location.",
		}), nil)); err != nil {
		log.Fatal(err)
	}
	if err := svc.Registry().Register("food", koko.NewEngine(koko.NewCorpus(nil,
		[]string{"I ate a chocolate ice cream, which was delicious, and also ate a pie."}), nil)); err != nil {
		log.Fatal(err)
	}

	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	fmt.Printf("kokod serving at %s\n\n", ts.URL)

	// 1. List the registry.
	var listing struct {
		Corpora []server.CorpusInfo `json:"corpora"`
	}
	get(ts.URL+"/v1/corpora", &listing)
	for _, c := range listing.Corpora {
		fmt.Printf("corpus %-6s gen=%d docs=%d sentences=%d\n", c.Name, c.Generation, c.Documents, c.Sentences)
	}

	// 2. Validate a query; the canonical form is the cache key text.
	cafeQuery := `extract x:Entity from "blogs" if ()
		satisfying x (str(x) contains "Cafe" {1.0}) with threshold 0.5`
	var v struct {
		Valid     bool   `json:"valid"`
		Canonical string `json:"canonical"`
	}
	post(ts.URL+"/v1/validate", map[string]string{"query": cafeQuery}, &v)
	fmt.Printf("\nvalidate: valid=%t canonical=%q\n", v.Valid, v.Canonical)

	// 3. Query both corpora concurrently.
	foodQuery := `extract e:Entity, d:Str from input.txt if
		(/ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) } (b) in (e))`
	reqs := []server.QueryRequest{
		{Corpus: "cafes", Query: cafeQuery},
		{Corpus: "food", Query: foodQuery, Explain: true},
	}
	var wg sync.WaitGroup
	results := make([]answer, len(reqs))
	for i, r := range reqs {
		wg.Add(1)
		go func(i int, r server.QueryRequest) {
			defer wg.Done()
			post(ts.URL+"/v1/query", r, &results[i])
		}(i, r)
	}
	wg.Wait()
	for i, res := range results {
		if len(res.Tuples) == 0 {
			log.Fatalf("%s: query returned no tuples", reqs[i].Corpus)
		}
		fmt.Printf("\n%s: %d tuples (cached=%t, total %.2fms, extract %.2fms, satisfying %.2fms)\n",
			reqs[i].Corpus, len(res.Tuples), res.Cached,
			res.Phases.Total, res.Phases.Extract, res.Phases.Satisfying)
		for _, t := range res.Tuples {
			fmt.Printf("  sid=%d %v\n", t.SentenceID, t.Values)
			for _, ev := range t.Evidence {
				fmt.Printf("    %-30s weight=%.2f conf=%.3f -> %.3f\n",
					ev.Condition, ev.Weight, ev.Confidence, ev.Contribution)
			}
		}
	}

	// 4. Repeat the cafe query: served from the result cache.
	var again answer
	post(ts.URL+"/v1/query", reqs[0], &again)
	fmt.Printf("\nrepeat cafes query: cached=%t, %d tuples\n", again.Cached, len(again.Tuples))

	var m server.MetricsSnapshot
	get(ts.URL+"/v1/metrics", &m)
	fmt.Printf("metrics: queries=%d hits=%d misses=%d peak_in_flight=%d\n",
		m.QueriesTotal, m.CacheHits, m.CacheMisses, m.PeakInFlight)
}

// answer is the part of a /v1/query answer this client reads. The server
// encodes its tuples straight from the engine's; a client decodes them into
// a struct of its own.
type answer struct {
	Tuples []struct {
		SentenceID int      `json:"sentence_id"`
		Values     []string `json:"values"`
		Evidence   []struct {
			Condition    string  `json:"condition"`
			Weight       float64 `json:"weight"`
			Confidence   float64 `json:"confidence"`
			Contribution float64 `json:"contribution"`
		} `json:"evidence"`
	} `json:"tuples"`
	server.QueryStats
}

func get(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}

func post(url string, body, out any) {
	b, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}
