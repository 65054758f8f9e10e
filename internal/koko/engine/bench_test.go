package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/embed"
	"repro/internal/koko/index"
	"repro/internal/koko/lang"
)

// The hot-path benchmark workload: a HappyDB corpus and the three query
// shapes that dominate real runs — a GSP-heavy horizontal extract, an
// aggregator-bound satisfying query, and DPLI word-path joins.
//
// The corpus generator mirrors corpus.GenHappyDB (that package depends on
// the engine through the indexing baselines, so it cannot be imported from
// here); keep the templates in sync.

const benchCorpusSents = 1000

const benchCorpusSeed = 42

// benchExtractQuery exercises the extract hot path: two node loops, a
// subtree derivation, and a horizontal condition whose two elastic spans the
// skip plan eliminates.
const benchExtractQuery = `
	extract d:Str, s:Str from "happydb" if (
	/ROOT:{ v = //verb, o = v/dobj, d = (o.subtree), s = "i" + ^ + v + ^ + o })`

// benchSatisfyingQuery adds the satisfying/aggregator path on top of the
// extract loop.
const benchSatisfyingQuery = `
	extract o:Str from "happydb" if (
	/ROOT:{ v = //verb, b = v/dobj, o = (b.subtree) })
	satisfying o ("ate" o {0.7}) or (o near "delicious" {1}) with threshold 0.2`

// benchJoinQueries exercise the three DPLI join shapes: the word-word
// ancestor/descendant join, the same-token join of hierarchy and word
// postings, and the final P⋈Q ancestor join.
var benchJoinQueries = []string{
	`extract d:Str from "happydb" if (/ROOT:{ v = //"ate", o = v//"cake", d = (o.subtree) })`,
	`extract d:Str from "happydb" if (/ROOT:{ v = //verb, o = v/dobj[text="cake"], d = (o.subtree) })`,
	`extract d:Str from "happydb" if (/ROOT:{ o = //"ate"/dobj, d = (o.subtree) })`,
}

func benchHappyDB(n int, seed int64) *index.Corpus {
	foods := []string{
		"chocolate cake", "cheesecake", "ice cream", "fresh bread",
		"a croissant", "a delicious pie", "seasonal cookies",
	}
	people := []string{
		"my family", "my daughter", "my son", "my best friend", "my wife",
		"my husband", "my brother",
	}
	places := []string{
		"the park", "a grocery store", "the library", "a cozy cafe",
		"the museum", "the stadium",
	}
	events := []string{
		"won the spelling contest", "finished a long project",
		"received an award", "graduated from college",
		"completed a marathon", "started a new job",
	}
	r := rand.New(rand.NewSource(seed))
	var texts, names []string
	for i := 0; i < n; i++ {
		food := foods[r.Intn(len(foods))]
		person := people[r.Intn(len(people))]
		place := places[r.Intn(len(places))]
		event := events[r.Intn(len(events))]
		var s string
		switch r.Intn(8) {
		case 0:
			s = fmt.Sprintf("I ate %s with %s.", food, person)
		case 1:
			s = fmt.Sprintf("I ate %s that I bought at %s.", food, place)
		case 2:
			s = fmt.Sprintf("My friend %s today and we celebrated together.", event)
		case 3:
			s = fmt.Sprintf("I visited %s and also ate %s.", place, food)
		case 4:
			s = fmt.Sprintf("I was happy because %s %s.", person, event)
		case 5:
			s = fmt.Sprintf("We walked to %s and enjoyed the quiet morning.", place)
		case 6:
			s = fmt.Sprintf("I made %s for %s, which was delicious.", food, person)
		default:
			s = fmt.Sprintf("Today I %s and felt really happy.", event)
		}
		texts = append(texts, s)
		names = append(names, fmt.Sprintf("moment-%06d", i))
	}
	return index.NewCorpus(names, texts)
}

func benchEngine(b *testing.B) *Engine {
	b.Helper()
	return benchEngineOver(benchHappyDB(benchCorpusSents, benchCorpusSeed))
}

func benchEngineOver(c *index.Corpus) *Engine {
	return New(c, index.Build(c), embed.NewModel(), Options{})
}

// BenchmarkExtractHotPath measures one full evaluation of the HappyDB
// extract workload (DPLI + GSP + nested loops + derivation).
func BenchmarkExtractHotPath(b *testing.B) {
	e := benchEngine(b)
	q := lang.MustParse(benchExtractQuery)
	res, err := e.Run(q)
	if err != nil {
		b.Fatal(err)
	}
	if len(res.Tuples) == 0 {
		b.Fatal("benchmark query matched nothing")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtractSatisfying measures the extract loop plus the
// aggregator-backed satisfying clause.
func BenchmarkExtractSatisfying(b *testing.B) {
	e := benchEngine(b)
	q := lang.MustParse(benchSatisfyingQuery)
	res, err := e.Run(q)
	if err != nil {
		b.Fatal(err)
	}
	if len(res.Tuples) == 0 {
		b.Fatal("benchmark query matched nothing")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDPLIJoin measures the index-pruning module alone: decomposition,
// posting-list joins, and the candidate-sid intersection, with
// normalization hoisted out of the loop.
func BenchmarkDPLIJoin(b *testing.B) {
	e := benchEngine(b)
	nqs := make([]*normQuery, 0, len(benchJoinQueries))
	for _, src := range benchJoinQueries {
		nq, err := normalize(lang.MustParse(src), e.model, 0)
		if err != nil {
			b.Fatal(err)
		}
		nqs = append(nqs, nq)
	}
	for _, nq := range nqs {
		if d := runDPLI(nq, e.ix, false); d.exhausted || len(d.candSids) == 0 {
			b.Fatal("benchmark join query pruned to nothing")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, nq := range nqs {
			runDPLI(nq, e.ix, false)
		}
	}
}
