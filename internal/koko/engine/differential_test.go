package engine

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/embed"
	"repro/internal/koko/index"
	"repro/internal/koko/lang"
	"repro/internal/nlp"
)

// The slot-based hot path must reproduce the seed map-based evaluator
// byte-for-byte: same assignments, same bindings, same emission order, on
// every sentence. refeval_test.go holds the frozen seed implementation.

var diffQueries = []string{
	// Node loops + subtree + horizontal with two skippable elastic gaps.
	`extract d:Str, s:Str from f if (/ROOT:{ v = //verb, o = v/dobj, d = (o.subtree), s = "i" + ^ + v + ^ + o })`,
	// Anchored paths (parent/ancestor constraints) + user in-constraint.
	`extract e:Entity, d:Str from f if (/ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) } (b) in (e))`,
	// Entity variable inside a horizontal condition.
	`extract x:Str from f if (/ROOT:{ a = Entity, v = //verb, x = a + ^ + v })`,
	// Literal token variable + elastic with bracket conditions.
	`extract x:Str from f if (/ROOT:{ v = //verb, w = "the", x = v + ^[max=2] + w })`,
	// Wildcard-heavy path and a plain subtree output.
	`extract w:Str from f if (/ROOT:{ n = //noun, w = (n.subtree) })`,
	// Equality constraint between a horizontal span and a subtree.
	`extract x:Str from f if (/ROOT:{ v = //verb, o = v/dobj, s = (o.subtree), x = o + ^ } (x) eq (s))`,
}

func diffCorpora() map[string]*index.Corpus {
	return map[string]*index.Corpus{
		"happydb": benchHappyDB(120, 7),
		"cafes": index.NewCorpus(nil, []string{
			"Juniper Lane, a cafe in Portland, serves coffee and fresh pastry.",
			"The barista at Sightglass poured a delicious espresso for Maria.",
			"I visited a cafe called Heart Roasters and ate a chocolate croissant.",
			"Ritual Coffee hired a barista who won the championship in Boston.",
			"The coffee menu at Blue Bottle lists a delicious single-origin pour-over.",
		}),
		"tweets": index.NewCorpus(nil, []string{
			"The Sounders beat Portland at the stadium tonight.",
			"We went to the arena and watched the game with friends.",
			"Arsenal vs Chelsea was a delicious match to watch.",
			"I am at Camp Nou watching Barcelona play soccer.",
			"Go Hawks! The team played great at CenturyLink Field.",
		}),
	}
}

// refCountOf adapts the slot-indexed DPLI count arrays back to the seed's
// by-name interface for the frozen reference evaluator.
func refCountOf(d *dpliResult, nq *normQuery, sid int32) func(string) int {
	return func(name string) int {
		v := nq.byName[name]
		if v == nil || v.slot >= len(d.counts) {
			return 0
		}
		vc := d.counts[v.slot]
		i := sort.Search(len(vc.sids), func(i int) bool { return vc.sids[i] >= sid })
		if i < len(vc.sids) && vc.sids[i] == sid {
			return int(vc.counts[i])
		}
		return 0
	}
}

func TestSlotEvalMatchesSeedSemantics(t *testing.T) {
	model := embed.NewModel()
	for cname, c := range diffCorpora() {
		ix := index.Build(c)
		for _, src := range diffQueries {
			for _, gspOff := range []bool{false, true} {
				nq, err := normalize(lang.MustParse(src), model, 0)
				if err != nil {
					t.Fatalf("%s: normalize(%s): %v", cname, src, err)
				}
				dpli := runDPLI(nq, ix, false)
				rc := newRECache()
				cc := newCountCursor(dpli, len(nq.vars))
				ev := newSentEval(nq, rc, gspOff)
				total := 0
				for sid := 0; sid < c.NumSentences(); sid++ {
					s := c.Sentence(sid)
					want := refEvalSentence(nq, s, rc, refCountOf(dpli, nq, int32(sid)), gspOff)
					got := ev.evalSentence(s, &cc, int32(sid))
					if got != len(want) {
						t.Fatalf("%s gspOff=%v sid=%d: %d assignments, seed emitted %d\nquery: %s",
							cname, gspOff, sid, got, len(want), src)
					}
					for i := 0; i < got; i++ {
						a := ev.out(i)
						for _, v := range nq.vars {
							wb, ok := want[i][v.name]
							if !ok {
								t.Fatalf("%s sid=%d: seed assignment %d misses %q", cname, sid, i, v.name)
							}
							if a[v.slot] != wb {
								t.Fatalf("%s gspOff=%v sid=%d assignment %d var %q: slot=%+v seed=%+v\nquery: %s",
									cname, gspOff, sid, i, v.name, a[v.slot], wb, src)
							}
						}
					}
					total += got
				}
				if cname == "happydb" && !gspOff && total == 0 && src == diffQueries[0] {
					t.Fatalf("%s: workload query matched nothing — test corpus too weak", cname)
				}
			}
		}
	}
}

// TestSlotEvalRandomizedCorpora fuzzes sentence shapes: random token soups
// (plus template sentences) keep the parser producing varied trees; slot
// and seed evaluators must agree everywhere.
func TestSlotEvalRandomizedCorpora(t *testing.T) {
	model := embed.NewModel()
	for seed := int64(1); seed <= 5; seed++ {
		c := benchHappyDB(60, seed*101)
		ix := index.Build(c)
		for _, src := range diffQueries {
			nq, err := normalize(lang.MustParse(src), model, 0)
			if err != nil {
				t.Fatal(err)
			}
			dpli := runDPLI(nq, ix, false)
			rc := newRECache()
			cc := newCountCursor(dpli, len(nq.vars))
			ev := newSentEval(nq, rc, false)
			for sid := 0; sid < c.NumSentences(); sid++ {
				s := c.Sentence(sid)
				want := refEvalSentence(nq, s, rc, refCountOf(dpli, nq, int32(sid)), false)
				got := ev.evalSentence(s, &cc, int32(sid))
				if got != len(want) {
					t.Fatalf("seed=%d sid=%d: %d vs %d assignments (%s)", seed, sid, got, len(want), src)
				}
				for i := 0; i < got; i++ {
					a := ev.out(i)
					for _, v := range nq.vars {
						if a[v.slot] != want[i][v.name] {
							t.Fatalf("seed=%d sid=%d assignment %d var %q differs", seed, sid, i, v.name)
						}
					}
				}
			}
		}
	}
}

// The compiled path matcher and the span-based aggregator replaced the seed's
// per-token step classification and its render-and-re-tokenise value
// handling. refeval_test.go freezes both seed forms; the tests below hold the
// replacements to them.

// aggCorpora adds to diffCorpora what evidence aggregation depends on and
// one-sentence documents cannot show: values recurring across the sentences
// of a document (in either case), and spans whose punctuation renders glued
// to its neighbour.
func aggCorpora() map[string]*index.Corpus {
	cs := diffCorpora()
	cs["blogs"] = index.NewCorpus(nil, []string{
		"The baristas of Gravity Beans won again. Gravity Beans serves espresso. " +
			"I visited a cafe called Gravity Beans and ate a delicious croissant. gravity beans sells coffee downtown.",
		"Blue Fox Cafe hired Anna Smith from Portland. Anna Smith poured a delicious espresso at Blue Fox Cafe. " +
			"We went to Blue Fox Cafe, a cafe in Portland, and ate chocolate cake.",
		"I ate chocolate cake at Heart Roasters. The cake was delicious. Maria ate the cake, which was delicious, with Anna.",
		"Iron Owl Cafe opened downtown. The coffee at Iron Owl Cafe is a pour-over. Iron Owl Cafe sells coffee from Ritual.",
	})
	cs["punct"] = index.NewCorpus(nil, []string{
		"Wait... . I ate the well-known pour-over cake -- - and the U.S. team won. Odin's cafe, the barista's pride, serves coffee.",
		"We ate cake at 5 p.m. today, then coffee ... . . The dogs' toys - - were (mostly) \"delicious\", he said.",
		"Anna's friend ate rock 'n' roll cake; it cost $5.50, i.e. nothing -- -- at all!",
	})
	return cs
}

// TestCompiledStepsMatchSeedMatcher: compilePath + stepMatchesToken accept
// exactly the tokens the seed matcher did, bracket conditions written
// non-canonically included.
func TestCompiledStepsMatchSeedMatcher(t *testing.T) {
	queries := []string{
		`extract d:Str from f if (/ROOT:{ v = //VERB, o = v/DObj[text="Cake"], d = (o.subtree) })`,
		`extract d:Str from f if (/ROOT:{ n = //*[@pos="NN"], p = //punct, d = (n.subtree) })`,
		`extract d:Str from f if (/ROOT:{ e = //Entity, g = //*[etype="gpe"], d = (e.subtree) })`,
		`extract d:Str from f if (/ROOT:{ w = //"Delicious", r = //noun[regex="[Cc].*"], q = /root//Person, d = (w.subtree) })`,
		`extract d:Str from f if (/ROOT:{ a = /root/nsubj, b = /*/*/*, c = //verb//noun[text="coffee"], d = (a.subtree) })`,
	}
	matched := map[string]int{}
	for cname, c := range aggCorpora() {
		for _, src := range queries {
			nq, err := normalize(lang.MustParse(src), nil, 0)
			if err != nil {
				t.Fatalf("normalize(%s): %v", src, err)
			}
			rc := newRECache()
			for _, v := range nq.nodeVars() {
				for sid := 0; sid < c.NumSentences(); sid++ {
					s := c.Sentence(sid)
					want := refMatchPathTokens(s, v.path, rc)
					got := MatchPath(s, v.path)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s sid=%d var %s: compiled %v, seed %v\nquery: %s", cname, sid, v.name, got, want, src)
					}
					matched[src] += len(got)
				}
			}
		}
	}
	for _, src := range queries {
		if matched[src] == 0 {
			t.Errorf("no path of %s matched any token — test corpora too weak", src)
		}
	}
}

var aggQueries = []string{
	// The hot-path workload query: preceded-by + near over a subtree span.
	`extract o:Str from f if (/ROOT:{ v = //verb, b = v/dobj, o = (b.subtree) })
		satisfying o ("ate" o {0.7}) or (o near "delicious" {1}) with threshold 0.2`,
	// Every document-scoped kind at once, multi-token arguments, on entities.
	`extract x:Entity from f if () satisfying x
		(x near ", a cafe" {1}) or (x "serves" {0.5}) or ("cafe called" x {1}) or ("at" x {0.4}) or
		(x [["sells coffee"]] {0.3}) or ([["baristas of"]] x {0.3}) or (str(x) contains "Cafe" {0.25})
		with threshold 0.3
		excluding (str(x) matches "[a-z ]+") or (x near "downtown")`,
	// The satisfying variable is not an output, its clause reads no string;
	// the excluding condition is over another variable.
	`extract s:Str from f if (/ROOT:{ v = //verb, o = v/dobj, s = (v.subtree), n = v/nsubj })
		satisfying o (o near "delicious" {1}) or (o "with" {0.5}) or ([["ate"]] o {0.5}) with threshold 0.25
		excluding ("maria" n)`,
	// Arbitrary spans (elastic + horizontal), including glued punctuation.
	`extract x:Str from f if (/ROOT:{ v = //verb, x = v + ^[max=4] })
		satisfying x (x near "cake" {1}) or (x "." {0.5}) or (x "-" {0.5}) or ("i" x {0.3}) with threshold 0.3`,
	// Two clauses; one purely document-independent.
	`extract x:Entity, p:Person from f if ()
		satisfying x (x near "espresso" {1}) or (str(x) mentions "Fox" {0.5}) with threshold 0.4
		satisfying p (p similarTo "barista" {1}) or (str(p) contains "Anna" {1}) with threshold 0.1`,
}

// TestSatisfyingMatchesSeedAggregator runs whole queries through the engine
// (one worker, and several under -race) and through the frozen seed
// evaluator + seed aggregator; tuples, scores and evidence must be identical.
func TestSatisfyingMatchesSeedAggregator(t *testing.T) {
	model := embed.NewModel()
	emitted := map[int]int{}
	for cname, c := range aggCorpora() {
		ix := index.Build(c)
		e := New(c, ix, model, Options{})
		for qi, src := range aggQueries {
			q := lang.MustParse(src)
			nq, err := normalize(q, model, 0)
			if err != nil {
				t.Fatalf("normalize(%s): %v", src, err)
			}
			dpli := runDPLI(nq, ix, false)
			rc := newRECache()
			var want []Tuple
			for d := 0; d < c.NumDocs(); d++ {
				first, end := c.DocSentences(d)
				ag := &refAggregator{model: model, rc: rc}
				for sid := first; sid < end; sid++ {
					ag.docSents = append(ag.docSents, c.Sentence(sid))
				}
				for sid := first; sid < end; sid++ {
					s := c.Sentence(sid)
					for _, a := range refEvalSentence(nq, s, rc, refCountOf(dpli, nq, int32(sid)), false) {
						if tp, ok := refFinishTuple(nq, s, d, a, ag, true); ok {
							want = append(want, tp)
						}
					}
				}
			}
			emitted[qi] += len(want)
			for _, workers := range []int{1, 4} {
				res, err := e.RunWith(q, RunOptions{Workers: workers, Explain: true})
				if err != nil {
					t.Fatalf("%s q%d: %v", cname, qi, err)
				}
				if len(res.Tuples) != len(want) {
					t.Fatalf("%s q%d workers=%d: %d tuples, seed %d", cname, qi, workers, len(res.Tuples), len(want))
				}
				for i := range want {
					if !reflect.DeepEqual(res.Tuples[i], want[i]) {
						t.Fatalf("%s q%d workers=%d tuple %d:\n got  %+v\n seed %+v", cname, qi, workers, i, res.Tuples[i], want[i])
					}
				}
			}
		}
	}
	for qi := range aggQueries {
		if emitted[qi] == 0 {
			t.Errorf("aggQueries[%d] emitted nothing on any corpus — test too weak", qi)
		}
	}
}

// TestSpanMentionsMatchRetokenised: for every span of every sentence, the
// mention group found from the span's Token.Lower sequence is the mention set
// the seed found by rendering the span and re-tokenising the string — also
// where rendering glues punctuation into a token the span does not have.
func TestSpanMentionsMatchRetokenised(t *testing.T) {
	for cname, c := range aggCorpora() {
		ag := newAggregator(nil, nil, newRECache(), newGlobalCache())
		for d := 0; d < c.NumDocs(); d++ {
			first, end := c.DocSentences(d)
			var sents []*nlp.Sentence
			for sid := first; sid < end; sid++ {
				sents = append(sents, c.Sentence(sid))
			}
			ag.reset(sents)
			ref := &refAggregator{docSents: sents}
			for _, s := range sents {
				for l := range s.Tokens {
					for r := l; r < len(s.Tokens); r++ {
						g := ag.groups[ag.group(s, span{l, r})]
						got := append([]mention(nil), ag.ments[g.lo:g.hi]...)
						want := ref.valueMentions(s.Text(l, r))
						if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
							t.Fatalf("%s doc %d sid %d span [%d,%d] %q: %d mentions, seed %d", cname, d, s.ID, l, r, s.Text(l, r), len(got), len(want))
						}
					}
				}
			}
		}
	}
}
