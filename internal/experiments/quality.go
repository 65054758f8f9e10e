package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/baselines/crf"
	"repro/internal/baselines/ike"
	"repro/internal/baselines/nell"
	"repro/internal/corpus"
	"repro/internal/embed"
	"repro/internal/koko/engine"
	"repro/internal/koko/index"
	"repro/internal/koko/lang"
)

// QualityResult is one panel of Figures 3/4: three systems' PRF series.
type QualityResult struct {
	Dataset string
	Koko    Series
	IKE     Series
	CRF     Series
}

// RunCafeExtraction reproduces one Figure 3 panel: KOKO (threshold sweep),
// IKE, and CRFsuite extracting cafe names from a blog corpus.
func RunCafeExtraction(name string, lc *corpus.Labeled) (*QualityResult, error) {
	model := embed.NewModel()
	ix := index.Build(lc.Corpus)
	eng := engine.New(lc.Corpus, ix, model, engine.Options{Dicts: lc.Dicts})

	res := &QualityResult{Dataset: name, Koko: Series{Name: "Koko", Points: map[float64]PRF{}}}
	for _, t := range Thresholds {
		r, err := eng.Run(CafeQuery(t, true))
		if err != nil {
			return nil, err
		}
		res.Koko.Points[t] = Score(valuesOf(r, 0), lc.Truth)
	}

	res.IKE = flatSeries("IKE", runIKE(lc.Corpus, model, IKECafePatterns, lc.Truth))
	res.CRF = flatSeries("CRFsuite", runCRF(lc.Corpus, lc.TrainSplit, lc.Truth))
	return res, nil
}

// RunKokoNoDescriptors reproduces Figure 5: the cafe query with descriptor
// conditions removed.
func RunKokoNoDescriptors(name string, lc *corpus.Labeled) (Series, error) {
	model := embed.NewModel()
	ix := index.Build(lc.Corpus)
	eng := engine.New(lc.Corpus, ix, model, engine.Options{Dicts: lc.Dicts})
	s := Series{Name: "No descriptors", Points: map[float64]PRF{}}
	for _, t := range Thresholds {
		r, err := eng.Run(CafeQuery(t, false))
		if err != nil {
			return s, err
		}
		s.Points[t] = Score(valuesOf(r, 0), lc.Truth)
	}
	return s, nil
}

// RunTweetExtraction reproduces one Figure 4 panel over the WNUT tweets.
func RunTweetExtraction(w *corpus.WNUT, category string) (*QualityResult, error) {
	model := embed.NewModel()
	ix := index.Build(w.Corpus)
	eng := engine.New(w.Corpus, ix, model, engine.Options{})

	var truth map[string]bool
	var mkQuery func(float64) *lang.Query
	var patterns []string
	switch category {
	case "teams":
		truth, mkQuery, patterns = w.Teams, TeamQuery, IKETeamPatterns
	case "facilities":
		truth, mkQuery, patterns = w.Facilities, FacilityQuery, IKEFacilityPatterns
	default:
		return nil, fmt.Errorf("unknown category %q", category)
	}

	res := &QualityResult{Dataset: "WNUT/" + category, Koko: Series{Name: "Koko", Points: map[float64]PRF{}}}
	for _, t := range Thresholds {
		r, err := eng.Run(mkQuery(t))
		if err != nil {
			return nil, err
		}
		res.Koko.Points[t] = Score(valuesOf(r, 0), truth)
	}
	res.IKE = flatSeries("IKE", runIKE(w.Corpus, model, patterns, truth))
	res.CRF = flatSeries("CRFsuite", runCRFTweets(w, truth))
	return res, nil
}

func runIKE(c *index.Corpus, model *embed.Model, patternSrcs []string, truth map[string]bool) PRF {
	var ps []*ike.Pattern
	for _, src := range patternSrcs {
		ps = append(ps, ike.MustParse(src))
	}
	got := ike.NewExtractor(model).Run(c, ps)
	lower := map[string]bool{}
	for g := range got {
		lower[strings.ToLower(g)] = true
	}
	return Score(lower, truth)
}

// runCRF trains on the training half of the documents (the paper's 50%
// split) and evaluates the predicted spans over the whole corpus.
func runCRF(c *index.Corpus, trainSplit map[int]bool, truth map[string]bool) PRF {
	var examples []crf.Example
	for sid := range c.Sentences {
		if !trainSplit[c.DocOfSent[sid]] {
			continue
		}
		examples = append(examples, crf.BIOFromSpans(&c.Sentences[sid], truth))
	}
	tagger := crf.Train(examples, 6, 11)
	extracted := map[string]bool{}
	for sid := range c.Sentences {
		if trainSplit[c.DocOfSent[sid]] {
			continue
		}
		s := &c.Sentences[sid]
		tokens := make([]string, len(s.Tokens))
		for i := range s.Tokens {
			tokens[i] = s.Tokens[i].Text
		}
		for _, span := range crf.ExtractSpans(tokens, tagger.Predict(tokens)) {
			extracted[strings.ToLower(span)] = true
		}
	}
	return Score(extracted, truth)
}

func runCRFTweets(w *corpus.WNUT, truth map[string]bool) PRF {
	return runCRF(w.Corpus, w.TrainSplit, truth)
}

// NELLResult is the §6.1 NELL comparison.
type NELLResult struct {
	Dataset  string
	PRF      PRF
	Patterns int
}

// RunNELL reproduces the §6.1 NELL experiment: the bootstrapper reads a
// synthetic Web corpus (NELL reads the Web, not the blog corpus) seeded with
// 17 well-known cafe chains; its promoted category members are then scored
// against the blog ground truth. Rare blog cafes barely occur on the "Web",
// so recall collapses while precision stays high — the paper's observation.
func RunNELL(name string, lc *corpus.Labeled, seed int64) NELLResult {
	web, seeds := genWebCorpus(lc, seed)
	b := nell.New(nell.DefaultConfig())
	res := b.Run(web, seeds)
	return NELLResult{Dataset: name, PRF: Score(res.Instances, lc.Truth), Patterns: res.Patterns}
}

// genWebCorpus builds the synthetic Web: famous chains (the 17 seeds)
// mentioned frequently in shared contexts, a handful of the blog corpus's
// cafes that happen to be Web-famous, and non-cafe organizations sharing
// some cafe-like contexts.
func genWebCorpus(lc *corpus.Labeled, seed int64) (*index.Corpus, []string) {
	r := rand.New(rand.NewSource(seed))
	seeds := []string{
		"Starbucks", "Blue Bottle", "Stumptown Coffee", "Intelligentsia",
		"Peets Coffee", "Caribou Coffee", "Costa Coffee", "Tim Hortons",
		"Dunkin", "Lavazza Cafe", "Verve Coffee", "Ritual Coffee",
		"Sightglass", "Heart Roasters", "Coava Coffee", "Barista Parlor",
		"Gregorys Coffee",
	}
	// A few blog cafes are famous enough to appear on the Web with the same
	// contextual patterns (these are the ones NELL can find).
	var truthNames []string
	for n := range lc.Truth {
		truthNames = append(truthNames, n)
	}
	sort.Strings(truthNames)
	famous := truthNames[:min(10, len(truthNames))]
	// Non-cafe distractors that share cafe contexts (NELL's false
	// positives).
	distractors := []string{"Midtown Gallery", "Harbor Books", "Union Cinema"}

	contexts := []string{
		"Customers order espresso at %s every morning.",
		"Reviewers praised %s for its espresso downtown.",
		"The chain %s announced a new location this week.",
	}
	var texts []string
	emit := func(name string, times int) {
		title := titleCase(name)
		for i := 0; i < times; i++ {
			texts = append(texts, fmt.Sprintf(contexts[r.Intn(len(contexts))], title))
		}
	}
	for _, s := range seeds {
		emit(s, 4)
	}
	for _, f := range famous {
		emit(f, 3)
	}
	for _, d := range distractors {
		emit(d, 3)
	}
	r.Shuffle(len(texts), func(i, j int) { texts[i], texts[j] = texts[j], texts[i] })
	return index.NewCorpus(nil, texts), seeds
}

// titleCase capitalizes the first letter of each space-separated word.
func titleCase(s string) string {
	words := strings.Fields(s)
	for i, w := range words {
		if w != "" && w[0] >= 'a' && w[0] <= 'z' {
			words[i] = string(w[0]-32) + w[1:]
		}
	}
	return strings.Join(words, " ")
}

// FormatQuality renders a quality panel in the three-metric layout of
// Figures 3/4.
func FormatQuality(q *QualityResult) string {
	var b strings.Builder
	series := []Series{q.CRF, q.IKE, q.Koko}
	b.WriteString(FormatSeries(q.Dataset+" — Precision", series, func(p PRF) float64 { return p.Precision }))
	b.WriteString(FormatSeries(q.Dataset+" — Recall", series, func(p PRF) float64 { return p.Recall }))
	b.WriteString(FormatSeries(q.Dataset+" — F1", series, func(p PRF) float64 { return p.F1 }))
	t, best := bestF1(q.Koko)
	fmt.Fprintf(&b, "Koko best F1 %.3f at threshold %.2f\n", best.F1, t)
	return b.String()
}
