package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
)

// Query classes. A stream op is an extract query answered as NDJSON; its
// total latency pools with class extract, its time to first tuple is reported
// on its own.
const (
	classLookup     = "lookup"
	classExtract    = "extract"
	classStream     = "stream"
	classSatisfying = "satisfying"
)

// reportClasses are the classes per-class metrics are suffixed with.
var reportClasses = []string{classLookup, classExtract, classSatisfying}

// reportClass maps an op class to the class its latency is reported under.
func reportClass(c string) string {
	if c == classStream {
		return classExtract
	}
	return c
}

// query is one distinct query text against one served corpus.
type query struct {
	ID     string
	Class  string // lookup, extract or satisfying
	Corpus string
	Text   string
}

// The query texts are literals on purpose: the benchmark must keep running
// when the experiment harness that first defined them is deleted. The wiki
// queries bind only Str variables, because typed-entity variables (Person,
// Date, Entity) fail against block-format wiki stores at this commit (see
// README "Known program defects").
var queries = []query{
	{"happy-cake", classLookup, "happy",
		`extract d:Str from "happydb" if (/ROOT:{ v = //verb, o = v/dobj[text="cake"], d = (o.subtree) })`},
	{"happy-ate", classLookup, "happy",
		`extract d:Str from "happydb" if (/ROOT:{ o = //"ate"/dobj, d = (o.subtree) })`},
	{"wiki-called", classLookup, "wiki",
		`extract b:Str from wiki.article if (/ROOT:{ v = //"called", p = v/propn, b = (p.subtree) })`},
	{"happy-dobj", classExtract, "happy",
		`extract d:Str, s:Str from "happydb" if (/ROOT:{ v = //verb, o = v/dobj, d = (o.subtree), s = "i" + ^ + v + ^ + o })`},
	{"wiki-born", classExtract, "wiki",
		`extract d:Str from wiki.article if (/ROOT:{ v = //"born", d = (v.subtree) })`},
	{"happy-delicious", classSatisfying, "happy",
		`extract o:Str from "happydb" if (/ROOT:{ v = //verb, b = v/dobj, o = (b.subtree) }) satisfying o ("ate" o {0.7}) or (o near "delicious" {1}) with threshold 0.2`},
	{"wiki-chocolate", classSatisfying, "wiki",
		`extract s:Str from wiki.article if (/ROOT:{ v = //verb, o = v//pobj[text="chocolate"], s = v/nsubj }) satisfying v (str(v) ~ "is" {1})`},
}

func queryByID(id string) *query {
	for i := range queries {
		if queries[i].ID == id {
			return &queries[i]
		}
	}
	panic("bench: unknown query " + id)
}

// op is one request of a cycle.
type op struct {
	Class string // lookup, extract, stream or satisfying
	Q     *query
}

// cycleMix is the fixed content of one cycle: 4 lookup, 2 extract, 1 stream,
// 3 satisfying. Every class holds an odd-sized cluster of its cheapest or
// dearest query around its median (lookup: 1 cake, 2 called, 1 ate;
// extract+stream: 1 born, 2 dobj; satisfying: 1 chocolate, 2 delicious), so a
// class median falls inside one query's latency distribution instead of in
// the gap between two. The two happy-delicious ops are the slowest 20 % of
// the cycle, so the overall p95 falls inside that query's distribution too.
var cycleMix = []struct{ class, id string }{
	{classLookup, "happy-cake"},
	{classLookup, "wiki-called"},
	{classLookup, "wiki-called"},
	{classLookup, "happy-ate"},
	{classExtract, "happy-dobj"},
	{classExtract, "wiki-born"},
	{classStream, "happy-dobj"},
	{classSatisfying, "happy-delicious"},
	{classSatisfying, "happy-delicious"},
	{classSatisfying, "wiki-chocolate"},
}

// buildCycle returns the cycle in its seed-shuffled order. Every cycle of a
// run repeats this order.
func buildCycle(seed int64) []op {
	ops := make([]op, len(cycleMix))
	for i, m := range cycleMix {
		ops[i] = op{Class: m.class, Q: queryByID(m.id)}
	}
	r := rand.New(rand.NewSource(seed ^ 0x6f70736571)) // decorrelate from the corpus streams
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// opSequenceHash fingerprints the op order of a cycle (class, query and
// text), for the determinism tests and the trace header.
func opSequenceHash(cycle []op) uint64 {
	h := fnv.New64a()
	for _, o := range cycle {
		fmt.Fprintf(h, "%s\x00%s\x00%s\x00%s\n", o.Class, o.Q.ID, o.Q.Corpus, o.Q.Text)
	}
	return h.Sum64()
}
