// Command kokobench regenerates the paper's tables and figures (DESIGN.md
// §2 maps each experiment id to its paper artifact).
//
//	kokobench -exp all                 run everything at default scale
//	kokobench -exp fig3                one experiment
//	kokobench -exp tab2 -scale 3       triple the default corpus sizes
//
// Output is plain text: one table per figure panel, in the same rows/series
// the paper plots.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/corpus"
	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: fig3 fig4 fig5 nell fig6 fig7 fig8 tab1 tab2 odin ablation all")
	scale := flag.Int("scale", 1, "corpus scale multiplier")
	seed := flag.Int64("seed", 1, "generator seed")
	flag.Parse()

	run := func(id string) bool { return *exp == "all" || *exp == id }
	any := false
	if run("fig3") {
		any = true
		fig3(*seed)
	}
	if run("fig4") {
		any = true
		fig4(*seed, *scale)
	}
	if run("fig5") {
		any = true
		fig5(*seed)
	}
	if run("nell") {
		any = true
		nell(*seed)
	}
	if run("fig6") {
		any = true
		fig6(*seed, *scale)
	}
	if run("fig7") {
		any = true
		fig78("Figure 7 (HappyDB)", *seed, *scale, true)
	}
	if run("fig8") {
		any = true
		fig78("Figure 8 (Wikipedia)", *seed, *scale, false)
	}
	if run("tab1") {
		any = true
		tab1(*seed, *scale)
	}
	if run("tab2") {
		any = true
		tab2(*seed, *scale)
	}
	if run("odin") {
		any = true
		odin(*seed, *scale)
	}
	if run("ablation") {
		any = true
		ablation(*seed, *scale)
	}
	if !any {
		fmt.Fprintf(os.Stderr, "kokobench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

func header(title string) {
	fmt.Println()
	fmt.Println(strings.Repeat("=", len(title)))
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", len(title)))
}

func fig3(seed int64) {
	header("Figure 3 — extracting cafe names (Koko vs IKE vs CRFsuite)")
	bm := corpus.GenCafes(corpus.BaristaMagConfig(seed))
	res, err := experiments.RunCafeExtraction("Barista Magazine", bm)
	check(err)
	fmt.Print(experiments.FormatQuality(res))

	// Sprudge is large; its config keeps the paper's full 1645 articles.
	res2, err := experiments.RunCafeExtraction("Sprudge", corpus.GenCafes(corpus.SprudgeConfig(seed+1)))
	check(err)
	fmt.Print(experiments.FormatQuality(res2))
}

func fig4(seed int64, scale int) {
	header("Figure 4 — extracting sports teams and facilities from tweets")
	w := corpus.GenWNUT(corpus.WNUTConfig{Tweets: 800 * scale, Seed: seed})
	for _, cat := range []string{"teams", "facilities"} {
		res, err := experiments.RunTweetExtraction(w, cat)
		check(err)
		fmt.Print(experiments.FormatQuality(res))
	}
}

func fig5(seed int64) {
	header("Figure 5 — Koko with/without descriptors (F1)")
	for _, ds := range []struct {
		name string
		cfg  corpus.CafeCorpusConfig
	}{
		{"Barista Magazine", corpus.BaristaMagConfig(seed)},
		{"Sprudge", corpus.SprudgeConfig(seed + 1)},
	} {
		lc := corpus.GenCafes(ds.cfg)
		with, err := experiments.RunCafeExtraction(ds.name, lc)
		check(err)
		without, err := experiments.RunKokoNoDescriptors(ds.name, lc)
		check(err)
		with.Koko.Name = "With descriptors"
		fmt.Print(experiments.FormatSeries(ds.name+" — F1", []experiments.Series{with.Koko, without},
			func(p experiments.PRF) float64 { return p.F1 }))
	}
}

func nell(seed int64) {
	header("§6.1 — NELL on the cafe corpora")
	for _, ds := range []struct {
		name string
		cfg  corpus.CafeCorpusConfig
	}{
		{"BaristaMag", corpus.BaristaMagConfig(seed)},
		{"Sprudge", corpus.SprudgeConfig(seed + 1)},
	} {
		lc := corpus.GenCafes(ds.cfg)
		res := experiments.RunNELL(ds.name, lc, seed+7)
		fmt.Printf("%-12s %s  (%d patterns promoted)\n", res.Dataset, res.PRF, res.Patterns)
	}
}

func fig6(seed int64, scale int) {
	header("Figure 6 — index construction time and size")
	sizes := []int{500, 1000, 2000, 5000}
	for i := range sizes {
		sizes[i] *= scale
	}
	fmt.Print(experiments.FormatBuild(experiments.RunIndexConstruction(sizes, seed)))
}

func fig78(title string, seed int64, scale int, happy bool) {
	header(title + " — index lookup time and effectiveness")
	var sizes []int
	pointsBySize := map[int][]experiments.LookupPoint{}
	if happy {
		for _, n := range []int{2000, 8000, 20000} {
			n *= scale
			sizes = append(sizes, n)
			c := corpus.GenHappyDB(n, seed)
			pointsBySize[n] = experiments.RunIndexLookup(c, n, seed+3)
		}
	} else {
		for _, n := range []int{1000, 4000, 10000} {
			n *= scale
			sizes = append(sizes, n)
			c, _ := corpus.GenWikipedia(n, seed)
			pointsBySize[n] = experiments.RunIndexLookup(c, n, seed+3)
		}
	}
	fmt.Print(experiments.FormatLookup(title, pointsBySize, sizes))
}

func tab1(seed int64, scale int) {
	header("Table 1 — GSP vs NOGSP (avg extract evaluation ms/sentence)")
	var points []experiments.GSPPoint
	hc := corpus.GenHappyDB(2000*scale, seed)
	points = append(points, experiments.RunGSPAblation(hc, "HappyDB", seed+1, 30, 400)...)
	wc, _ := corpus.GenWikipedia(1000*scale, seed)
	points = append(points, experiments.RunGSPAblation(wc, "Wikipedia", seed+2, 30, 400)...)
	fmt.Print(experiments.FormatGSP(points))
}

func tab2(seed int64, scale int) {
	header("Table 2 — Koko execution-time breakdown (Chocolate/Title/DateOfBirth)")
	sizes := []int{1000, 2000, 4000, 8000}
	for i := range sizes {
		sizes[i] *= scale
	}
	points, err := experiments.RunScaleBreakdown(sizes, seed)
	check(err)
	fmt.Print(experiments.FormatBreakdown(points))
}

func odin(seed int64, scale int) {
	header("§6.3 — Odin comparison")
	points := experiments.RunOdinComparison(2000*scale, seed)
	fmt.Print(experiments.FormatOdin(points))
	for _, p := range points {
		fmt.Printf("%-14s Koko evaluated %d/%d sentences; Odin %d full passes\n",
			p.Query, p.KokoEvaluated, p.TotalSentences, p.Passes)
	}
}

func ablation(seed int64, scale int) {
	header("Ablation — DPLI with index families removed")
	c := corpus.GenHappyDB(3000*scale, seed)
	fmt.Print(experiments.FormatAblation(experiments.RunIndexAblation(c, seed+5)))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "kokobench:", err)
		os.Exit(1)
	}
}
