package corpus

import (
	"strings"
	"testing"

	"repro/internal/koko/engine"
	"repro/internal/koko/index"
	"repro/internal/koko/lang"
)

func TestBaristaMagShape(t *testing.T) {
	lc := GenCafes(BaristaMagConfig(1))
	if lc.Corpus.NumDocs() != 84 {
		t.Errorf("docs = %d, want 84", lc.Corpus.NumDocs())
	}
	if got := len(lc.Truth); got != 137 {
		t.Errorf("cafes = %d, want 137", got)
	}
	// Ground-truth cafes must actually be recognizable entities somewhere.
	found := 0
	for sid := range lc.Corpus.Sentences {
		s := &lc.Corpus.Sentences[sid]
		for _, e := range s.Entities {
			if lc.Truth[strings.ToLower(e.Text)] {
				found++
				break
			}
		}
	}
	if found < lc.Corpus.NumDocs()/2 {
		t.Errorf("cafes recognized as entities in only %d sentences", found)
	}
	// Deterministic.
	lc2 := GenCafes(BaristaMagConfig(1))
	if lc2.Corpus.NumSentences() != lc.Corpus.NumSentences() {
		t.Error("generator not deterministic")
	}
	// Train split is half the docs.
	if n := len(lc.TrainSplit); n != 42 {
		t.Errorf("train split = %d, want 42", n)
	}
}

func TestSprudgeShape(t *testing.T) {
	cfg := SprudgeConfig(2)
	cfg.Articles = 100 // scaled for the test; the harness uses full size
	cfg.CafesTotal = 41
	lc := GenCafes(cfg)
	if lc.Corpus.NumDocs() != 100 || len(lc.Truth) != 41 {
		t.Errorf("docs=%d cafes=%d", lc.Corpus.NumDocs(), len(lc.Truth))
	}
	// Longer articles than BaristaMag.
	bm := GenCafes(BaristaMagConfig(2))
	if lc.Corpus.NumSentences()/lc.Corpus.NumDocs() <= bm.Corpus.NumSentences()/bm.Corpus.NumDocs() {
		t.Error("Sprudge articles not longer than BaristaMag")
	}
}

func TestWNUTShape(t *testing.T) {
	w := GenWNUT(WNUTConfig{Tweets: 500, Seed: 3})
	if w.Corpus.NumDocs() != 500 {
		t.Fatalf("docs = %d", w.Corpus.NumDocs())
	}
	if len(w.Teams) == 0 || len(w.Facilities) == 0 {
		t.Fatalf("teams=%d facilities=%d", len(w.Teams), len(w.Facilities))
	}
	// Every document is a single sentence (no cross-sentence evidence).
	for _, d := range w.Corpus.Docs {
		if d.NumSents > 1 {
			t.Errorf("tweet %s has %d sentences", d.Name, d.NumSents)
		}
	}
}

func TestHappyDB(t *testing.T) {
	c := GenHappyDB(200, 4)
	if c.NumDocs() != 200 {
		t.Fatalf("docs = %d", c.NumDocs())
	}
	for sid := range c.Sentences {
		if err := c.Sentences[sid].Validate(); err != nil {
			t.Fatalf("sentence %d: %v", sid, err)
		}
	}
}

func TestWikipediaSelectivities(t *testing.T) {
	c, st := GenWikipedia(3000, 5)
	if c.NumDocs() != 3000 {
		t.Fatalf("docs = %d", c.NumDocs())
	}
	choc := float64(st.Chocolate) / float64(st.Articles)
	title := float64(st.Title) / float64(st.Articles)
	dob := float64(st.DateOfBirth) / float64(st.Articles)
	if choc <= 0 || choc >= 0.03 {
		t.Errorf("chocolate selectivity = %.4f, want (0, 0.03) — paper: low <1%%", choc)
	}
	if title < 0.05 || title > 0.2 {
		t.Errorf("title selectivity = %.4f, want ≈0.1", title)
	}
	if dob < 0.6 {
		t.Errorf("dob selectivity = %.4f, want > 0.6", dob)
	}
}

func TestSyntheticTreeBenchmark(t *testing.T) {
	c := GenHappyDB(400, 6)
	qs := GenSyntheticTree(c, 7)
	if len(qs) != 350 {
		t.Fatalf("benchmark size = %d, want 350", len(qs))
	}
	// Count path/tree split and supported-by-SUBTREE style queries.
	paths, trees := 0, 0
	for _, q := range qs {
		if strings.HasPrefix(q.Setting, "path/") {
			paths++
		} else {
			trees++
		}
		if len(q.Query.Vars) == 0 {
			t.Fatalf("query with no vars: %s", q.Setting)
		}
	}
	if paths < 200 || trees < 80 {
		t.Errorf("paths=%d trees=%d", paths, trees)
	}
	// A good fraction must have nonzero ground-truth matches.
	matched := 0
	for _, q := range qs[:60] {
		for sid := range c.Sentences {
			s := &c.Sentences[sid]
			all := true
			for _, v := range q.Query.Vars {
				if len(engine.MatchPath(s, v.Steps)) == 0 {
					all = false
					break
				}
			}
			if all {
				matched++
				break
			}
		}
	}
	if matched < 40 {
		t.Errorf("only %d/60 sampled queries have matches", matched)
	}
}

func TestSyntheticSpanBenchmark(t *testing.T) {
	c := GenHappyDB(300, 8)
	qs := GenSyntheticSpanOver(c, 9, 100)
	if len(qs) != 300 {
		t.Fatalf("benchmark size = %d, want 300", len(qs))
	}
	counts := map[int]int{}
	for _, q := range qs {
		counts[q.Atoms]++
		// Every query must reparse from its printed form.
		if _, err := lang.Parse(q.Query.String()); err != nil {
			t.Fatalf("query does not round-trip: %v\n%s", err, q.Query.String())
		}
	}
	if counts[1] != 100 || counts[3] != 100 || counts[5] != 100 {
		t.Errorf("atom distribution = %v", counts)
	}
}

// TestAllGeneratorsProduceValidTrees sweeps every generator and validates
// the dependency-tree invariants of every parsed sentence — the safety net
// that keeps generator changes from silently producing malformed parses.
func TestAllGeneratorsProduceValidTrees(t *testing.T) {
	bm := GenCafes(BaristaMagConfig(101))
	w := GenWNUT(WNUTConfig{Tweets: 300, Seed: 102})
	wiki, _ := GenWikipedia(300, 104)
	corpora := map[string]*index.Corpus{
		"baristamag": bm.Corpus,
		"wnut":       w.Corpus,
		"happydb":    GenHappyDB(300, 103),
		"wikipedia":  wiki,
	}
	for name, c := range corpora {
		for sid := 0; sid < c.NumSentences(); sid++ {
			s := c.Sentence(sid)
			if err := s.Validate(); err != nil {
				t.Fatalf("%s sentence %d: %v\n%q", name, sid, err, s.String())
			}
			if len(s.Tokens) == 0 {
				t.Fatalf("%s sentence %d empty", name, sid)
			}
		}
	}
}
