// Package repro's root benchmarks regenerate every table and figure of the
// paper's evaluation at benchmark-friendly scale (one Benchmark per
// artifact; DESIGN.md §2 maps ids to paper artifacts). The full-scale runs
// live in cmd/kokobench; these benches exist so `go test -bench=.` exercises
// every experiment pipeline and reports its cost.
package repro

import (
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/experiments"
)

// BenchmarkFig3CafeExtraction — Figure 3: Koko vs IKE vs CRFsuite on the
// BaristaMag-like corpus (full paper size: 84 articles, 137 cafes).
func BenchmarkFig3CafeExtraction(b *testing.B) {
	lc := corpus.GenCafes(corpus.BaristaMagConfig(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunCafeExtraction("BaristaMag", lc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportBestF1(b, res)
		}
	}
}

// BenchmarkFig4TweetExtraction — Figure 4: teams and facilities from WNUT
// tweets.
func BenchmarkFig4TweetExtraction(b *testing.B) {
	w := corpus.GenWNUT(corpus.WNUTConfig{Tweets: 800, Seed: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cat := range []string{"teams", "facilities"} {
			if _, err := experiments.RunTweetExtraction(w, cat); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig5Descriptors — Figure 5: the cafe query without descriptor
// conditions.
func BenchmarkFig5Descriptors(b *testing.B) {
	lc := corpus.GenCafes(corpus.BaristaMagConfig(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunKokoNoDescriptors("BaristaMag", lc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNELL — §6.1: the NELL bootstrapper on the cafe task.
func BenchmarkNELL(b *testing.B) {
	lc := corpus.GenCafes(corpus.BaristaMagConfig(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.RunNELL("BaristaMag", lc, 7)
		if i == 0 {
			b.ReportMetric(res.PRF.Precision, "precision")
			b.ReportMetric(res.PRF.Recall, "recall")
		}
	}
}

// BenchmarkFig6IndexConstruction — Figure 6: build time and size for all
// four indexing schemes.
func BenchmarkFig6IndexConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points := experiments.RunIndexConstruction([]int{400}, 3)
		if i == 0 {
			for _, p := range points {
				b.ReportMetric(float64(p.SizeBytes)/1024, p.Scheme+"-KB")
			}
		}
	}
}

// BenchmarkFig7LookupHappyDB — Figure 7: SyntheticTree lookups over HappyDB.
func BenchmarkFig7LookupHappyDB(b *testing.B) {
	c := corpus.GenHappyDB(1500, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points := experiments.RunIndexLookup(c, 1500, 5)
		if i == 0 {
			for _, p := range points {
				b.ReportMetric(p.Effectiveness, p.Scheme+"-eff")
			}
		}
	}
}

// BenchmarkFig8LookupWikipedia — Figure 8: the same over Wikipedia articles.
func BenchmarkFig8LookupWikipedia(b *testing.B) {
	c, _ := corpus.GenWikipedia(600, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if points := experiments.RunIndexLookup(c, 600, 7); i == 0 {
			for _, p := range points {
				b.ReportMetric(p.Effectiveness, p.Scheme+"-eff")
			}
		}
	}
}

// BenchmarkTable1GSP — Table 1: GSP vs NOGSP per-sentence extract time.
func BenchmarkTable1GSP(b *testing.B) {
	c := corpus.GenHappyDB(600, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points := experiments.RunGSPAblation(c, "HappyDB", 9, 8, 150)
		if i == 0 {
			for _, p := range points {
				name := "gsp"
				if !p.GSP {
					name = "nogsp"
				}
				b.ReportMetric(float64(p.PerSent.Microseconds()),
					name+"-atoms"+string(rune('0'+p.Atoms))+"-us/sent")
			}
		}
	}
}

// BenchmarkTable2Breakdown — Table 2: the three §6.3 queries over a corpus
// written to a temporary block store and opened; the store is removed
// after the run.
func BenchmarkTable2Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunScaleBreakdown([]int{600}, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOdin — §6.3: Odin cascade vs Koko on the three queries.
func BenchmarkOdin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points := experiments.RunOdinComparison(600, 11)
		if i == 0 {
			for _, p := range points {
				b.ReportMetric(p.Slowdown, p.Query+"-slowdown")
			}
		}
	}
}

// BenchmarkAblationIndexes — design-choice ablation: DPLI with each index
// family removed (DESIGN.md §4).
func BenchmarkAblationIndexes(b *testing.B) {
	c := corpus.GenHappyDB(800, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points := experiments.RunIndexAblation(c, 13)
		if i == 0 {
			for _, p := range points {
				b.ReportMetric(p.Effectiveness, strings.ReplaceAll(p.Mode, " ", "-")+"-eff")
			}
		}
	}
}

func reportBestF1(b *testing.B, res *experiments.QualityResult) {
	best := 0.0
	for _, p := range res.Koko.Points {
		if p.F1 > best {
			best = p.F1
		}
	}
	b.ReportMetric(best, "koko-F1")
	for _, p := range res.IKE.Points {
		b.ReportMetric(p.F1, "ike-F1")
		break
	}
	for _, p := range res.CRF.Points {
		b.ReportMetric(p.F1, "crf-F1")
		break
	}
}
