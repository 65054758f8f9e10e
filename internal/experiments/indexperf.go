package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/baselines/indexing"
	"repro/internal/corpus"
	"repro/internal/koko/engine"
	"repro/internal/koko/index"
	"repro/internal/store"
)

// SchemeNames fixes the reporting order of the four schemes.
var SchemeNames = []string{"INVERTED", "ADVINVERTED", "SUBTREE", "KOKO"}

func newScheme(name string) indexing.Scheme {
	switch name {
	case "INVERTED":
		return indexing.NewInverted()
	case "ADVINVERTED":
		return indexing.NewAdvInverted()
	case "SUBTREE":
		return indexing.NewSubtree()
	default:
		return indexing.NewKoko()
	}
}

// BuildPoint is one Figure 6 measurement.
type BuildPoint struct {
	Articles  int
	Scheme    string
	BuildTime time.Duration
	SizeBytes int64
}

// RunIndexConstruction reproduces Figure 6: index build time and size as
// the Wikipedia-like corpus grows.
func RunIndexConstruction(sizes []int, seed int64) []BuildPoint {
	var out []BuildPoint
	for _, n := range sizes {
		c, _ := corpus.GenWikipedia(n, seed)
		for _, name := range SchemeNames {
			// Each build is timed as the fastest of three, so a
			// millisecond-scale build is not timed against another's
			// garbage or a scheduler stall.
			var s indexing.Scheme
			dur := time.Duration(math.MaxInt64)
			for range 3 {
				s = newScheme(name)
				t0 := time.Now()
				s.Build(c)
				dur = min(dur, time.Since(t0))
			}
			db := store.NewDB()
			s.Save(db)
			out = append(out, BuildPoint{
				Articles: n, Scheme: name,
				BuildTime: dur, SizeBytes: db.SizeBytes(),
			})
		}
	}
	return out
}

// FormatBuild renders Figure 6 as two tables.
func FormatBuild(points []BuildPoint) string {
	byScheme := map[string]map[int]BuildPoint{}
	var sizes []int
	seen := map[int]bool{}
	for _, p := range points {
		if byScheme[p.Scheme] == nil {
			byScheme[p.Scheme] = map[int]BuildPoint{}
		}
		byScheme[p.Scheme][p.Articles] = p
		if !seen[p.Articles] {
			seen[p.Articles] = true
			sizes = append(sizes, p.Articles)
		}
	}
	var b strings.Builder
	b.WriteString("Figure 6(a) — index build time (ms)\n")
	fmt.Fprintf(&b, "%-14s", "#articles")
	for _, n := range sizes {
		fmt.Fprintf(&b, "%10d", n)
	}
	b.WriteByte('\n')
	for _, s := range SchemeNames {
		fmt.Fprintf(&b, "%-14s", s)
		for _, n := range sizes {
			fmt.Fprintf(&b, "%10.1f", float64(byScheme[s][n].BuildTime.Microseconds())/1000)
		}
		b.WriteByte('\n')
	}
	b.WriteString("Figure 6(b) — index size (KB)\n")
	fmt.Fprintf(&b, "%-14s", "#articles")
	for _, n := range sizes {
		fmt.Fprintf(&b, "%10d", n)
	}
	b.WriteByte('\n')
	for _, s := range SchemeNames {
		fmt.Fprintf(&b, "%-14s", s)
		for _, n := range sizes {
			fmt.Fprintf(&b, "%10.1f", float64(byScheme[s][n].SizeBytes)/1024)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// LookupPoint is one Figure 7/8 measurement for one scheme at one corpus
// size.
type LookupPoint struct {
	Scheme        string
	CorpusSize    int // sentences (HappyDB) or articles (Wikipedia)
	Supported     int
	LookupTime    time.Duration // total over supported benchmark queries
	Effectiveness float64       // mean over supported queries
	// ByExtractions buckets (log10 of #matching sentences) -> (avg lookup
	// time, avg effectiveness) for panels (c) and (d).
	ByExtractions map[int]BucketStat
}

// BucketStat aggregates one extraction-count bucket.
type BucketStat struct {
	Queries       int
	AvgLookup     time.Duration
	Effectiveness float64
}

// RunIndexLookup reproduces Figures 7 and 8 over one corpus: the
// SyntheticTree benchmark is generated from the corpus, each scheme answers
// every supported query, and lookup time plus effectiveness (the fraction
// of returned sentences that truly contain bindings for all variables) are
// measured.
func RunIndexLookup(c *index.Corpus, sizeLabel int, seed int64) []LookupPoint {
	bench := corpus.GenSyntheticTree(c, seed)
	var out []LookupPoint
	for _, name := range SchemeNames {
		s := newScheme(name)
		s.Build(c)
		p := LookupPoint{Scheme: name, CorpusSize: sizeLabel, ByExtractions: map[int]BucketStat{}}
		var effSum float64
		type bucketAcc struct {
			n   int
			dur time.Duration
			eff float64
		}
		buckets := map[int]*bucketAcc{}
		for _, bq := range bench {
			if !s.Supports(bq.Query) {
				continue
			}
			p.Supported++
			t0 := time.Now()
			cands := s.Candidates(bq.Query)
			dur := time.Since(t0)
			p.LookupTime += dur
			// Effectiveness: fraction of returned sentences that truly
			// match every variable (checked soundly on the candidates).
			matching := 0
			for _, sid := range cands {
				sent := &c.Sentences[sid]
				all := true
				for _, v := range bq.Query.Vars {
					if len(engine.MatchPath(sent, v.Steps)) == 0 {
						all = false
						break
					}
				}
				if all {
					matching++
				}
			}
			eff := 1.0
			if len(cands) > 0 {
				eff = float64(matching) / float64(len(cands))
			}
			effSum += eff
			bucket := 0
			if matching > 0 {
				bucket = int(math.Floor(math.Log10(float64(matching)))) + 1
			}
			acc := buckets[bucket]
			if acc == nil {
				acc = &bucketAcc{}
				buckets[bucket] = acc
			}
			acc.n++
			acc.dur += dur
			acc.eff += eff
		}
		if p.Supported > 0 {
			p.Effectiveness = effSum / float64(p.Supported)
		}
		for bk, acc := range buckets {
			p.ByExtractions[bk] = BucketStat{
				Queries:       acc.n,
				AvgLookup:     acc.dur / time.Duration(acc.n),
				Effectiveness: acc.eff / float64(acc.n),
			}
		}
		out = append(out, p)
	}
	return out
}

// FormatLookup renders one corpus-size row of Figures 7/8.
func FormatLookup(title string, pointsBySize map[int][]LookupPoint, sizes []int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — lookup time (ms, total over supported queries)\n%-14s", title, "size")
	for _, n := range sizes {
		fmt.Fprintf(&b, "%12d", n)
	}
	b.WriteByte('\n')
	for _, s := range SchemeNames {
		fmt.Fprintf(&b, "%-14s", s)
		for _, n := range sizes {
			fmt.Fprintf(&b, "%12.1f", float64(findPoint(pointsBySize[n], s).LookupTime.Microseconds())/1000)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%s — effectiveness\n%-14s", title, "size")
	for _, n := range sizes {
		fmt.Fprintf(&b, "%12d", n)
	}
	b.WriteByte('\n')
	for _, s := range SchemeNames {
		fmt.Fprintf(&b, "%-14s", s)
		for _, n := range sizes {
			fmt.Fprintf(&b, "%12.3f", findPoint(pointsBySize[n], s).Effectiveness)
		}
		b.WriteByte('\n')
	}
	// Panels (c)/(d): per-extraction-bucket stats at the largest size.
	last := sizes[len(sizes)-1]
	fmt.Fprintf(&b, "%s — by #extractions (largest corpus: %d)\n", title, last)
	fmt.Fprintf(&b, "%-14s %-10s %-8s %-14s %-12s\n", "scheme", "bucket", "queries", "avg lookup", "effectiveness")
	for _, s := range SchemeNames {
		p := findPoint(pointsBySize[last], s)
		var bks []int
		for bk := range p.ByExtractions {
			bks = append(bks, bk)
		}
		sortIntsAsc(bks)
		for _, bk := range bks {
			st := p.ByExtractions[bk]
			fmt.Fprintf(&b, "%-14s 10^%-7d %-8d %-14s %-12.3f\n", s, bk, st.Queries, st.AvgLookup, st.Effectiveness)
		}
	}
	return b.String()
}

func findPoint(ps []LookupPoint, scheme string) LookupPoint {
	for _, p := range ps {
		if p.Scheme == scheme {
			return p
		}
	}
	return LookupPoint{}
}

func sortIntsAsc(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
