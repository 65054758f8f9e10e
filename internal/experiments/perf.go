package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/baselines/odin"
	"repro/internal/corpus"
	"repro/internal/embed"
	"repro/internal/koko/engine"
	"repro/internal/koko/index"
	"repro/internal/koko/index/blockstore"
	"repro/internal/koko/lang"
)

// GSPPoint is one Table 1 cell: average extract-clause evaluation time per
// sentence for one atom count, with the skip plan on or off.
type GSPPoint struct {
	Corpus  string
	Atoms   int
	GSP     bool
	PerSent time.Duration
	Queries int
}

// RunGSPAblation reproduces Table 1 over one corpus: the SyntheticSpan
// benchmark (perSetting queries per atom count) evaluated with and without
// the skip plan; the metric is extract-clause time (GSP + nested loops)
// divided by the number of sentences evaluated.
func RunGSPAblation(c *index.Corpus, label string, seed int64, perSetting, maxSents int) []GSPPoint {
	queries := corpus.GenSyntheticSpanOver(c, seed, perSetting)
	ix := index.Build(c)
	// Bound the per-query work for the NOGSP runs: evaluation is restricted
	// to a prefix of the corpus so the quadratic nested loops stay tractable
	// (the paper reports per-sentence averages, which this preserves).
	sub := c
	if maxSents > 0 && maxSents < c.NumSentences() {
		sub = &index.Corpus{}
		for sid := 0; sid < maxSents; sid++ {
			s := c.Sentences[sid]
			sub.Sentences = append(sub.Sentences, s)
			sub.DocOfSent = append(sub.DocOfSent, len(sub.Docs))
			sub.Docs = append(sub.Docs, index.DocMeta{Name: fmt.Sprintf("s%d", sid), FirstSID: sid, NumSents: 1})
		}
		ix = index.Build(sub)
	}
	var out []GSPPoint
	for _, atoms := range []int{1, 3, 5} {
		for _, gsp := range []bool{true, false} {
			eng := engine.New(sub, ix, nil, engine.Options{DisableSkipPlan: !gsp})
			var total time.Duration
			var sents int
			n := 0
			for _, q := range queries {
				if q.Atoms != atoms {
					continue
				}
				res, err := eng.Run(q.Query)
				if err != nil {
					continue
				}
				total += res.Times.GSP + res.Times.Extract
				sents += res.EvaluatedSentences
				n++
			}
			p := GSPPoint{Corpus: label, Atoms: atoms, GSP: gsp, Queries: n}
			if sents > 0 {
				p.PerSent = total / time.Duration(sents)
			}
			out = append(out, p)
		}
	}
	return out
}

// FormatGSP renders Table 1.
func FormatGSP(points []GSPPoint) string {
	var b strings.Builder
	b.WriteString("Table 1 — avg extract-clause evaluation time (ms/sentence)\n")
	byKey := map[string]GSPPoint{}
	var corpora []string
	seen := map[string]bool{}
	for _, p := range points {
		byKey[fmt.Sprintf("%s|%d|%v", p.Corpus, p.Atoms, p.GSP)] = p
		if !seen[p.Corpus] {
			seen[p.Corpus] = true
			corpora = append(corpora, p.Corpus)
		}
	}
	fmt.Fprintf(&b, "%-16s", "")
	for _, c := range corpora {
		fmt.Fprintf(&b, "%-30s", c)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-16s", "# of atoms")
	for range corpora {
		fmt.Fprintf(&b, "%-10s%-10s%-10s", "1", "3", "5")
	}
	b.WriteByte('\n')
	for _, gsp := range []bool{true, false} {
		name := "KOKO&GSP"
		if !gsp {
			name = "KOKO&NOGSP"
		}
		fmt.Fprintf(&b, "%-16s", name)
		for _, c := range corpora {
			for _, atoms := range []int{1, 3, 5} {
				p := byKey[fmt.Sprintf("%s|%d|%v", c, atoms, gsp)]
				fmt.Fprintf(&b, "%-10.3f", float64(p.PerSent.Microseconds())/1000)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// BreakdownPoint is one Table 2 row: the per-phase execution time of one
// §6.3 query at one corpus scale.
type BreakdownPoint struct {
	Query    string
	Articles int
	// LoadArticle is the time to open the corpus's block store. A served
	// store decodes every article once, at open, so this is the paper's
	// LoadArticle phase paid per corpus rather than per candidate article.
	LoadArticle time.Duration
	Times       engine.PhaseTimes
	Tuples      int
	// Selectivity: fraction of articles with >= 1 extraction.
	Selectivity float64
}

// RunScaleBreakdown reproduces Table 2: the three queries over a growing
// Wikipedia corpus served the way kokod serves one, from a block store
// written to a temporary directory and opened (the LoadArticle column),
// reporting the Normalize / DPLI / LoadArticle / GSP / extract / satisfying
// breakdown. Each row is the fastest of breakdownRuns cold runs, each on a
// fresh engine (empty regexp and score caches) after a collection, so a
// millisecond-scale query is not timed against the corpus build's GC debt
// or a scheduler stall.
func RunScaleBreakdown(sizes []int, seed int64) ([]BreakdownPoint, error) {
	const breakdownRuns = 3
	var out []BreakdownPoint
	for _, n := range sizes {
		c, _ := corpus.GenWikipedia(n, seed)
		r, open, cleanup, err := openScaleStore(c)
		if err != nil {
			return nil, err
		}
		cols, ix := r.Columns(), r.NewIndex()
		model := embed.NewModel()
		for _, name := range ScaleQueryOrder {
			q := ScaleQueries()[name]
			var res *engine.Result
			for range breakdownRuns {
				runtime.GC()
				eng := engine.NewColumns(cols, ix, model, engine.Options{})
				rr, err := eng.Run(q)
				if err != nil {
					res = nil
					break
				}
				if res == nil || rr.Times.Total() < res.Times.Total() {
					res = rr
				}
			}
			if res == nil {
				continue
			}
			docs := map[int]bool{}
			for _, t := range res.Tuples {
				docs[t.Document] = true
			}
			out = append(out, BreakdownPoint{
				Query: name, Articles: n, LoadArticle: open, Times: res.Times, Tuples: len(res.Tuples),
				Selectivity: float64(len(docs)) / float64(n),
			})
		}
		cleanup()
	}
	return out, nil
}

// openScaleStore writes c and its index as a block store in a fresh
// temporary directory and opens it, timing the fastest of three opens. cleanup closes the
// reader and removes the directory.
func openScaleStore(c *index.Corpus) (r *blockstore.Reader, open time.Duration, cleanup func(), err error) {
	dir, err := os.MkdirTemp("", "koko-table2-")
	if err != nil {
		return nil, 0, nil, err
	}
	path := filepath.Join(dir, "corpus.koko")
	if err := blockstore.Write(path, c, index.Build(c)); err != nil {
		os.RemoveAll(dir)
		return nil, 0, nil, err
	}
	// The open is timed as the fastest of three: one open's time swings
	// severalfold with the garbage collections the corpus build left due.
	open = time.Duration(math.MaxInt64)
	for range 3 {
		if r != nil {
			r.Close()
		}
		t0 := time.Now()
		r, err = blockstore.Open(path)
		open = min(open, time.Since(t0))
		if err != nil {
			os.RemoveAll(dir)
			return nil, 0, nil, err
		}
	}
	return r, open, func() {
		r.Close() // read-only mapping: nothing to flush
		os.RemoveAll(dir)
	}, nil
}

// FormatBreakdown renders Table 2.
func FormatBreakdown(points []BreakdownPoint) string {
	var b strings.Builder
	b.WriteString("Table 2 — KOKO execution time (ms) per phase\n")
	fmt.Fprintf(&b, "%-12s %-10s %-10s %-10s %-12s %-8s %-10s %-12s %-8s %-6s\n",
		"query", "articles", "Normalize", "DPLI", "LoadArticle", "GSP", "extract", "satisfying", "tuples", "sel")
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	for _, p := range points {
		fmt.Fprintf(&b, "%-12s %-10d %-10.2f %-10.2f %-12.2f %-8.2f %-10.2f %-12.2f %-8d %-6.2f\n",
			p.Query, p.Articles,
			ms(p.Times.Normalize), ms(p.Times.DPLI), ms(p.LoadArticle),
			ms(p.Times.GSP), ms(p.Times.Extract), ms(p.Times.Satisfying),
			p.Tuples, p.Selectivity)
	}
	return b.String()
}

// OdinPoint is one §6.3 Odin-vs-KOKO comparison row.
type OdinPoint struct {
	Query    string
	Koko     time.Duration
	Odin     time.Duration
	Slowdown float64
	Passes   int
	// KokoEvaluated / TotalSentences exposes the pruning that drives the
	// gap: Odin always touches Passes × TotalSentences.
	KokoEvaluated  int
	TotalSentences int
}

// RunOdinComparison reproduces the §6.3 Odin comparison on a Wikipedia
// corpus: each query runs through KOKO (with index pruning and satisfying
// clauses) and through the Odin cascade (extract clause only, no index,
// iterated to fixpoint).
func RunOdinComparison(nArticles int, seed int64) []OdinPoint {
	c, _ := corpus.GenWikipedia(nArticles, seed)
	ix := index.Build(c)
	eng := engine.New(c, ix, embed.NewModel(), engine.Options{})
	runner := odin.New(c, ix)
	var out []OdinPoint
	for i, name := range ScaleQueryOrder {
		q := ScaleQueries()[name]
		// Best of three runs on each side, to damp scheduler noise.
		kokoDur := time.Duration(1 << 62)
		evaluated := 0
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			res, err := eng.Run(q)
			if err != nil {
				continue
			}
			if d := time.Since(t0); d < kokoDur {
				kokoDur = d
			}
			evaluated = res.EvaluatedSentences
		}
		oq := stripSatisfying(q)
		odinDur := time.Duration(1 << 62)
		passes := 0
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			_, p := runner.Run([]odin.Rule{{Name: name, Priority: i + 1, Query: oq}})
			if d := time.Since(t0); d < odinDur {
				odinDur = d
			}
			passes = p
		}
		p := OdinPoint{
			Query: name, Koko: kokoDur, Odin: odinDur, Passes: passes,
			KokoEvaluated: evaluated, TotalSentences: c.NumSentences(),
		}
		if kokoDur > 0 {
			p.Slowdown = float64(odinDur) / float64(kokoDur)
		}
		out = append(out, p)
	}
	return out
}

// stripSatisfying drops satisfying/excluding clauses (Odin cannot aggregate
// evidence; "our translated queries contain only extract clauses").
func stripSatisfying(q *lang.Query) *lang.Query {
	cp := *q
	cp.Satisfying = nil
	cp.Excluding = nil
	return &cp
}

// FormatOdin renders the comparison.
func FormatOdin(points []OdinPoint) string {
	var b strings.Builder
	b.WriteString("§6.3 Odin comparison\n")
	fmt.Fprintf(&b, "%-14s %-12s %-12s %-10s %-8s\n", "query", "Koko", "Odin", "slowdown", "passes")
	for _, p := range points {
		fmt.Fprintf(&b, "%-14s %-12s %-12s %-10.1f %-8d\n", p.Query, p.Koko.Round(time.Microsecond), p.Odin.Round(time.Microsecond), p.Slowdown, p.Passes)
	}
	return b.String()
}
