package server

import "repro/koko"

// Demo corpora: two small in-memory corpora that make a service queryable
// out of the box. kokod -demo registers them, the CI api-smoke step drives
// them over HTTP, and the differential tests pin streamed and job results
// against buffered responses on them.

// DemoQueries maps each demo corpus to a query that returns deterministic,
// non-empty tuples — the probe the smoke tests and examples use.
var DemoQueries = map[string]string{
	"demo-cafes": `extract x:Entity from "blogs" if ()
		satisfying x (str(x) contains "Cafe" {1.0}) with threshold 0.5`,
	"demo-food": `extract x:Str from "reviews" if
		(/ROOT:{ a = //"ate", b = a/dobj, x = (b.subtree) } (b) eq (b))`,
}

// demoDocs holds each demo corpus's document names and texts.
var demoDocs = []struct {
	name        string
	docs, texts []string
}{
	{"demo-cafes", []string{"seattle.txt", "portland.txt"}, []string{
		"Cafe Vita serves smooth espresso daily. Cafe Juanita hired a champion barista. " +
			"The neighborhood bakery sells fresh bread.",
		"Cafe Umbria opened a second location. The baristas at Cafe Umbria won a latte art championship.",
	}},
	{"demo-food", []string{"reviews.txt"}, []string{
		"I ate a chocolate ice cream, which was delicious, and also ate a pie. " +
			"Anna ate some delicious cheesecake that she bought at a grocery store.",
	}},
}

// RegisterDemoCorpora installs the demo corpora in reg. shards > 1
// partitions each into that many doc-range shards so the fan-out (and
// shard-at-a-time jobs/streaming) path is exercisable without a store file.
// With durability configured, a demo corpus that already has durable state
// comes back from disk (with any previous run's ingests and deletes) and
// the freshly built seed is ignored.
func RegisterDemoCorpora(reg *Registry, shards int) error {
	for _, d := range demoDocs {
		if err := reg.Register(d.name, koko.NewShardedEngine(koko.NewCorpus(d.docs, d.texts), shards, nil)); err != nil {
			return err
		}
	}
	return nil
}
