package engine

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/embed"
	"repro/internal/koko/index"
	"repro/internal/koko/lang"
)

// TestConcurrentRunsShareEngine: many goroutines issuing Run/RunWith against
// one shared Engine (the kokod serving pattern) must neither race — the
// regexp cache and global score cache are shared across runs — nor perturb
// each other's results. Run with -race.
func TestConcurrentRunsShareEngine(t *testing.T) {
	var texts []string
	for i := 0; i < 40; i++ {
		texts = append(texts,
			fmt.Sprintf("Cafe Number%d serves smooth espresso daily. Cafe Number%d hired a champion barista.", i, i))
	}
	c := index.NewCorpus(nil, texts)
	ix := index.Build(c)
	eng := New(c, ix, embed.NewModel(), Options{})

	queries := []*lang.Query{
		lang.MustParse(`
			extract x:Entity from "blogs" if ()
			satisfying x
			(str(x) contains "Cafe" {0.4}) or
			(x [["serves coffee"]] {0.3}) or
			(x [["employs baristas"]] {0.3})
			with threshold 0.5`),
		lang.MustParse(`
			extract x:Entity from "blogs" if ()
			satisfying x (str(x) matches "Cafe Number[0-9]+" {1.0})
			with threshold 0.9`),
	}

	// Reference results computed sequentially up front.
	want := make([]*Result, len(queries))
	for i, q := range queries {
		r, err := eng.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Tuples) == 0 {
			t.Fatalf("query %d: no tuples — test would be vacuous", i)
		}
		want[i] = r
	}

	const goroutines = 8
	const rounds = 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				qi := (g + r) % len(queries)
				// Mix per-run explain into the cross-request concurrency.
				res, err := eng.RunWith(queries[qi], RunOptions{Explain: g%2 == 0})
				if err != nil {
					errs <- err
					return
				}
				if len(res.Tuples) != len(want[qi].Tuples) {
					errs <- fmt.Errorf("goroutine %d query %d: %d tuples, want %d",
						g, qi, len(res.Tuples), len(want[qi].Tuples))
					return
				}
				for i := range res.Tuples {
					if res.Tuples[i].SentenceID != want[qi].Tuples[i].SentenceID ||
						!reflect.DeepEqual(res.Tuples[i].Values, want[qi].Tuples[i].Values) {
						errs <- fmt.Errorf("goroutine %d query %d tuple %d differs: %v vs %v",
							g, qi, i, res.Tuples[i], want[qi].Tuples[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRunWithExplainOverride: RunOptions.Explain must control evidence on a
// per-run basis against a single engine built without Explain.
func TestRunWithExplainOverride(t *testing.T) {
	c := index.NewCorpus(nil, []string{"Cafe Vita serves smooth espresso daily."})
	ix := index.Build(c)
	eng := New(c, ix, embed.NewModel(), Options{})
	q := lang.MustParse(`
		extract x:Entity from "f" if ()
		satisfying x (str(x) contains "Cafe" {1.0})
		with threshold 0.5`)

	plain, err := eng.RunWith(q, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	explained, err := eng.RunWith(q, RunOptions{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Tuples) == 0 || len(explained.Tuples) == 0 {
		t.Fatal("expected tuples from both runs")
	}
	if len(plain.Tuples[0].Evidence) != 0 {
		t.Errorf("explain off: unexpected evidence %v", plain.Tuples[0].Evidence)
	}
	if len(explained.Tuples[0].Evidence) == 0 {
		t.Error("explain on: no evidence attached")
	}
}
