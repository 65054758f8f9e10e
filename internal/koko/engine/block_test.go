package engine_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/embed"
	"repro/internal/koko/engine"
	"repro/internal/koko/index"
	"repro/internal/koko/lang"
)

// blockCorpora pairs a one-sentence-per-document corpus (HappyDB) and a
// multi-sentence one (Wikipedia-like articles) with satisfying queries over
// them.
func blockCorpora() []struct {
	name    string
	c       *index.Corpus
	queries []string
} {
	wiki, _ := corpus.GenWikipedia(150, 5)
	return []struct {
		name    string
		c       *index.Corpus
		queries []string
	}{
		{"happy", corpus.GenHappyDB(300, 5), []string{
			`extract o:Str from "happydb" if (
			/ROOT:{ v = //verb, b = v/dobj, o = (b.subtree) })
			satisfying o ("ate" o {0.7}) or (o near "delicious" {1}) with threshold 0.2`,
			`extract d:Str, s:Str from "happydb" if (
			/ROOT:{ v = //verb, o = v/dobj, d = (o.subtree), s = "i" + ^ + v + ^ + o })
			satisfying d (str(d) contains "cake" {1}) or (d near "my" {0.5}) with threshold 0.1`,
		}},
		{"wiki", wiki, []string{
			`extract x:Entity from "wiki" if ()
			satisfying x (str(x) contains "Museum" {0.5}) or (x near "opened" {0.5}) or (x near "born" {0.5})
			with threshold 0.4`,
			`extract a:Person, b:Date from "wiki" if (/ROOT:{v = verb})
			satisfying v (str(v) ~ "born" {1})`,
		}},
	}
}

// sameRun reports whether got equals want in everything but phase times.
func sameRun(got, want *engine.Result) bool {
	g, w := *got, *want
	g.Times, w.Times = engine.PhaseTimes{}, engine.PhaseTimes{}
	return reflect.DeepEqual(g, w)
}

// TestBlockBoundaries: where the evaluation loop cuts its blocks changes
// nothing but timing. At block sizes 1, 3 and the loop's own, over single-
// and multi-sentence documents (some with more candidate sentences than a
// block holds), tuples, scores, evidence, counters and plan actuals are
// identical, and GSP, extract and satisfying each get time (GSP none with
// the skip plan off).
func TestBlockBoundaries(t *testing.T) {
	ctx := context.Background()
	for _, bc := range blockCorpora() {
		ix := index.Build(bc.c)
		longest := 0 // the most candidate sentences of one document
		for _, gspOff := range []bool{false, true} {
			e := engine.New(bc.c, ix, embed.NewModel(), engine.Options{DisableSkipPlan: gspOff})
			for _, src := range bc.queries {
				q := lang.MustParse(src)
				cands, err := e.Candidates(q)
				if err != nil {
					t.Fatal(err)
				}
				perDoc := map[int]int{}
				for _, sid := range cands {
					d := bc.c.DocOfSent[sid]
					perDoc[d]++
					longest = max(longest, perDoc[d])
				}
				var want *engine.Result
				for _, size := range []int{engine.BlockSents, 1, 3} {
					st, err := e.StreamBlocks(q, engine.RunOptions{Explain: true, Ctx: ctx}, size)
					if err != nil {
						t.Fatal(err)
					}
					res, err := st.Collect()
					if err != nil {
						t.Fatal(err)
					}
					pt := res.Times
					if gspOff && pt.GSP != 0 || !gspOff && pt.GSP <= 0 || pt.Extract <= 0 || pt.Satisfying <= 0 {
						t.Errorf("%s gspOff=%v block %d: GSP %v, extract %v, satisfying %v",
							bc.name, gspOff, size, pt.GSP, pt.Extract, pt.Satisfying)
					}
					if want == nil {
						want = res
						if len(res.Tuples) == 0 || res.Tuples[0].Evidence == nil {
							t.Fatalf("%s: no tuples with evidence for %s", bc.name, src)
						}
					} else if !sameRun(res, want) {
						t.Errorf("%s gspOff=%v block %d: run differs from block %d (%d vs %d tuples)\nquery: %s",
							bc.name, gspOff, size, engine.BlockSents, len(res.Tuples), len(want.Tuples), src)
					}
				}
			}
		}
		if bc.name == "wiki" && longest <= 3 {
			t.Errorf("wiki: no document has more than 3 candidate sentences")
		}
	}
}

// TestBlockCancellation: a context cancelled while the consumer holds the
// first block's tuples stops the stream before the next block, and the
// stream reports the context's error.
func TestBlockCancellation(t *testing.T) {
	for _, bc := range blockCorpora() {
		e := engine.New(bc.c, index.Build(bc.c), embed.NewModel(), engine.Options{})
		q := lang.MustParse(bc.queries[0])
		for _, size := range []int{1, 3, engine.BlockSents} {
			st, err := e.StreamBlocks(q, engine.RunOptions{}, size)
			if err != nil {
				t.Fatal(err)
			}
			all := 0
			for range st.Docs() {
				all++
			}
			if all < 2 {
				t.Fatalf("%s block %d: %d blocks with tuples, want several", bc.name, size, all)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if st, err = e.StreamBlocks(q, engine.RunOptions{Ctx: ctx}, size); err != nil {
				t.Fatal(err)
			}
			blocks := 0
			for range st.Docs() {
				blocks++
				cancel()
			}
			if blocks != 1 || !errors.Is(st.Err(), context.Canceled) {
				t.Errorf("%s block %d: %d blocks yielded after cancelling in the first, err %v; want 1 and %v",
					bc.name, size, blocks, st.Err(), context.Canceled)
			}
		}
	}
}
