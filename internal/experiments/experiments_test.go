package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
)

func smallCafes(t *testing.T) *corpus.Labeled {
	t.Helper()
	cfg := corpus.BaristaMagConfig(21)
	return corpus.GenCafes(cfg)
}

// TestFig3Shape: KOKO's best-F1 must beat both IKE and CRF on the cafe
// corpus (the Figure 3 claim: "KOKO performs better than IKE and CRFsuite
// for all thresholds"), and the threshold sweep must trade recall for
// precision.
func TestFig3Shape(t *testing.T) {
	lc := smallCafes(t)
	res, err := RunCafeExtraction("BaristaMag", lc)
	if err != nil {
		t.Fatal(err)
	}
	_, kokoBest := bestF1(res.Koko)
	ikeP := res.IKE.Points[Thresholds[0]]
	crfP := res.CRF.Points[Thresholds[0]]
	if kokoBest.F1 <= ikeP.F1 {
		t.Errorf("Koko best F1 %.3f <= IKE %.3f\n%s", kokoBest.F1, ikeP.F1, FormatQuality(res))
	}
	if kokoBest.F1 <= crfP.F1 {
		t.Errorf("Koko best F1 %.3f <= CRF %.3f\n%s", kokoBest.F1, crfP.F1, FormatQuality(res))
	}
	// Recall must be non-increasing in the threshold; precision
	// non-decreasing over the low-to-mid range (weak evidence drops out).
	lo, hi := res.Koko.Points[0.3], res.Koko.Points[0.9]
	if hi.Recall > lo.Recall {
		t.Errorf("recall increased with threshold: %.3f -> %.3f", lo.Recall, hi.Recall)
	}
	if hi.Precision+1e-9 < lo.Precision {
		t.Errorf("precision decreased with threshold: %.3f -> %.3f", lo.Precision, hi.Precision)
	}
	if kokoBest.F1 < 0.3 {
		t.Errorf("Koko best F1 %.3f implausibly low\n%s", kokoBest.F1, FormatQuality(res))
	}
}

// TestFig4Shape: on tweets the baselines close most of the gap (no
// cross-sentence evidence to aggregate) but KOKO still wins at its best
// threshold.
func TestFig4Shape(t *testing.T) {
	w := corpus.GenWNUT(corpus.WNUTConfig{Tweets: 600, Seed: 22})
	for _, cat := range []string{"teams", "facilities"} {
		res, err := RunTweetExtraction(w, cat)
		if err != nil {
			t.Fatal(err)
		}
		_, kokoBest := bestF1(res.Koko)
		ikeP := res.IKE.Points[Thresholds[0]]
		if kokoBest.F1 < ikeP.F1 {
			t.Errorf("%s: Koko best F1 %.3f < IKE %.3f\n%s", cat, kokoBest.F1, ikeP.F1, FormatQuality(res))
		}
		if kokoBest.F1 < 0.3 {
			t.Errorf("%s: Koko best F1 %.3f implausibly low\n%s", cat, kokoBest.F1, FormatQuality(res))
		}
	}
}

// TestFig5Shape: descriptors must help on the short-article corpus.
func TestFig5Shape(t *testing.T) {
	lc := smallCafes(t)
	with, err := RunCafeExtraction("BaristaMag", lc)
	if err != nil {
		t.Fatal(err)
	}
	without, err := RunKokoNoDescriptors("BaristaMag", lc)
	if err != nil {
		t.Fatal(err)
	}
	_, bw := bestF1(with.Koko)
	_, bo := bestF1(without)
	if bw.F1 < bo.F1 {
		t.Errorf("descriptors hurt: with %.3f, without %.3f", bw.F1, bo.F1)
	}
}

// TestNELLShape: high precision, very low recall (the paper's P=0.7/R=0.05
// regime).
func TestNELLShape(t *testing.T) {
	lc := smallCafes(t)
	res := RunNELL("BaristaMag", lc, 31)
	if res.PRF.Recall > 0.15 {
		t.Errorf("NELL recall %.3f too high (paper: 0.05)", res.PRF.Recall)
	}
	if res.PRF.Extracted > 0 && res.PRF.Precision < 0.5 {
		t.Errorf("NELL precision %.3f too low (paper: 0.7): %v", res.PRF.Precision, res.PRF)
	}
}

// TestFig6Shape: build-time and size orderings.
func TestFig6Shape(t *testing.T) {
	points := RunIndexConstruction([]int{300}, 41)
	var golden strings.Builder
	golden.WriteString("# scheme articles size_bytes\n")
	for _, p := range points {
		fmt.Fprintf(&golden, "%s %d %d\n", p.Scheme, p.Articles, p.SizeBytes)
	}
	checkGolden(t, "fig6", golden.String())
	get := func(name string) BuildPoint {
		for _, p := range points {
			if p.Scheme == name {
				return p
			}
		}
		t.Fatalf("missing %s", name)
		return BuildPoint{}
	}
	koko, inv, adv, sub := get("KOKO"), get("INVERTED"), get("ADVINVERTED"), get("SUBTREE")
	if !(koko.SizeBytes < inv.SizeBytes && inv.SizeBytes < adv.SizeBytes && adv.SizeBytes < sub.SizeBytes) {
		t.Errorf("size ordering broken: koko=%d inv=%d adv=%d sub=%d",
			koko.SizeBytes, inv.SizeBytes, adv.SizeBytes, sub.SizeBytes)
	}
	// 2× margin: the two build times are a few ms each, and scheduler noise
	// on a loaded machine can flip a head-to-head comparison.
	if !raceDetectorEnabled && sub.BuildTime*2 < koko.BuildTime {
		t.Errorf("SUBTREE built decisively faster than KOKO: %v vs %v", sub.BuildTime, koko.BuildTime)
	}
}

// TestFig78Shape: lookup effectiveness ordering — KOKO and ADVINVERTED near
// perfect, INVERTED clearly worse; KOKO lookup not slower than INVERTED.
func TestFig78Shape(t *testing.T) {
	c := corpus.GenHappyDB(800, 51)
	points := RunIndexLookup(c, 800, 52)
	get := func(name string) LookupPoint {
		for _, p := range points {
			if p.Scheme == name {
				return p
			}
		}
		t.Fatalf("missing %s", name)
		return LookupPoint{}
	}
	koko, inv, adv, sub := get("KOKO"), get("INVERTED"), get("ADVINVERTED"), get("SUBTREE")
	if koko.Effectiveness < 0.95 {
		t.Errorf("KOKO effectiveness %.3f, want ~1", koko.Effectiveness)
	}
	if adv.Effectiveness < 0.9 {
		t.Errorf("ADVINVERTED effectiveness %.3f, want ~1", adv.Effectiveness)
	}
	if inv.Effectiveness > koko.Effectiveness-0.1 {
		t.Errorf("INVERTED effectiveness %.3f not clearly below KOKO %.3f", inv.Effectiveness, koko.Effectiveness)
	}
	if sub.Supported >= koko.Supported {
		t.Errorf("SUBTREE supports %d >= KOKO %d (should be a strict subset)", sub.Supported, koko.Supported)
	}
	if !raceDetectorEnabled && koko.LookupTime > inv.LookupTime {
		t.Errorf("KOKO lookup %v slower than INVERTED %v", koko.LookupTime, inv.LookupTime)
	}
}

// TestTable1Shape: with 5 atoms the skip plan must win by a wide margin;
// with 1 atom the two are comparable.
func TestTable1Shape(t *testing.T) {
	c := corpus.GenHappyDB(400, 61)
	points := RunGSPAblation(c, "HappyDB", 62, 12, 200)
	get := func(atoms int, gsp bool) GSPPoint {
		for _, p := range points {
			if p.Atoms == atoms && p.GSP == gsp {
				return p
			}
		}
		t.Fatalf("missing point %d/%v", atoms, gsp)
		return GSPPoint{}
	}
	g5, n5 := get(5, true), get(5, false)
	if n5.PerSent < 10*g5.PerSent {
		t.Errorf("NOGSP(5 atoms) %v not >= 10x GSP %v\n%s", n5.PerSent, g5.PerSent, FormatGSP(points))
	}
	g1, n1 := get(1, true), get(1, false)
	if g1.PerSent > 20*n1.PerSent+time.Millisecond {
		t.Errorf("GSP(1 atom) %v unexpectedly dominates NOGSP %v", g1.PerSent, n1.PerSent)
	}
}

// TestTable2Shape: total time roughly linear in article count, and the
// low-selectivity query spends a larger *share* in DPLI than the
// high-selectivity one.
func TestTable2Shape(t *testing.T) {
	points, err := RunScaleBreakdown([]int{400, 800}, 71)
	if err != nil {
		t.Fatal(err)
	}
	var golden strings.Builder
	golden.WriteString("# query articles tuples selectivity\n")
	for _, p := range points {
		fmt.Fprintf(&golden, "%s %d %d %.6f\n", p.Query, p.Articles, p.Tuples, p.Selectivity)
	}
	checkGolden(t, "tab2", golden.String())
	byQ := map[string]map[int]BreakdownPoint{}
	for _, p := range points {
		if byQ[p.Query] == nil {
			byQ[p.Query] = map[int]BreakdownPoint{}
		}
		byQ[p.Query][p.Articles] = p
	}
	for q, m := range byQ {
		small, big := m[400], m[800]
		ratio := float64(big.Times.Total()) / float64(small.Times.Total()+1)
		if !raceDetectorEnabled && ratio > 8 {
			t.Errorf("%s: superlinear scaling x%.1f (%v -> %v)", q, ratio, small.Times.Total(), big.Times.Total())
		}
	}
	choc, dob := byQ["Chocolate"][800], byQ["DateOfBirth"][800]
	chocShare := float64(choc.Times.DPLI) / float64(choc.Times.Total()+1)
	dobShare := float64(dob.Times.DPLI) / float64(dob.Times.Total()+1)
	if chocShare < dobShare {
		t.Errorf("DPLI share: Chocolate %.3f < DateOfBirth %.3f (low-selectivity query should spend relatively more on lookup)", chocShare, dobShare)
	}
	// Selectivity bands: Chocolate low, DateOfBirth high.
	if choc.Selectivity > 0.05 {
		t.Errorf("Chocolate selectivity %.3f, want < 0.05", choc.Selectivity)
	}
	if dob.Selectivity < 0.5 {
		t.Errorf("DateOfBirth selectivity %.3f, want > 0.5", dob.Selectivity)
	}
}

// TestOdinShape: the mechanism behind the paper's 40×/23×/1.3× slowdowns is
// asserted deterministically — Odin always touches passes × all sentences,
// while KOKO's index pruning touches a selectivity-dependent fraction
// (tiny for Chocolate, large for DateOfBirth). Wall-clock ratios are printed
// by the harness but not asserted here (CI timing noise).
func TestOdinShape(t *testing.T) {
	points := RunOdinComparison(400, 81)
	if len(points) != 3 {
		t.Fatalf("points = %v", points)
	}
	frac := map[string]float64{}
	for _, p := range points {
		if p.Passes < 2 {
			t.Errorf("%s: only %d passes", p.Query, p.Passes)
		}
		if p.TotalSentences == 0 {
			t.Fatalf("%s: no sentences", p.Query)
		}
		frac[p.Query] = float64(p.KokoEvaluated) / float64(p.TotalSentences)
	}
	if frac["Chocolate"] > 0.1 {
		t.Errorf("Chocolate evaluated fraction %.3f, want < 0.1 (index pruning)\n%s",
			frac["Chocolate"], FormatOdin(points))
	}
	if frac["DateOfBirth"] < 0.3 {
		t.Errorf("DateOfBirth evaluated fraction %.3f, want > 0.3 (unselective)\n%s",
			frac["DateOfBirth"], FormatOdin(points))
	}
	if frac["Chocolate"] >= frac["DateOfBirth"] {
		t.Errorf("pruning ordering broken: Chocolate %.3f >= DateOfBirth %.3f",
			frac["Chocolate"], frac["DateOfBirth"])
	}
}

// TestIndexAblationShape: the full multi-index must be at least as
// effective as every ablated configuration, and strictly better than
// PL-only (the word and POS indices earn their keep).
func TestIndexAblationShape(t *testing.T) {
	c := corpus.GenHappyDB(600, 91)
	points := RunIndexAblation(c, 92)
	byMode := map[string]AblationPoint{}
	for _, p := range points {
		byMode[p.Mode] = p
	}
	full := byMode["full multi-index"]
	if full.Effectiveness < 0.95 {
		t.Errorf("full effectiveness %.3f, want ~1", full.Effectiveness)
	}
	for mode, p := range byMode {
		if p.Effectiveness > full.Effectiveness+1e-9 {
			t.Errorf("%s effectiveness %.3f exceeds full %.3f", mode, p.Effectiveness, full.Effectiveness)
		}
	}
	if byMode["PL only"].Effectiveness >= full.Effectiveness {
		t.Errorf("PL-only (%.3f) not worse than full (%.3f): ablation shows no benefit\n%s",
			byMode["PL only"].Effectiveness, full.Effectiveness, FormatAblation(points))
	}
}
