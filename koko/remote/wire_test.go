package remote

import (
	"math"
	"testing"

	"repro/koko"
)

// checksumTuples covers every field TuplesChecksum hashes: ids, nil and
// empty values, scores with keys out of sorted order, evidence, and bytes
// outside ASCII.
var checksumTuples = []koko.Tuple{
	{SentenceID: 12, Document: 3, Values: []string{"Cafe Vita", "espresso"}},
	{SentenceID: -1, Document: 0, Values: []string{}, Scores: map[string]float64{}},
	{SentenceID: 7, Document: 2, Values: []string{"", "日本\xff"},
		Scores: map[string]float64{"y": 0.25, "x": 0.7, "\xff": -1, "a b": math.Inf(1)},
		Evidence: []koko.Evidence{
			{Variable: "x", Condition: `str(x) contains "Cafe"`, Weight: 0.6, Confidence: 1, Contribution: 0.6},
			{Variable: "y", Condition: "", Weight: 1e-7, Confidence: 0, Contribution: math.Copysign(0, -1)},
		}},
}

// TestChecksumVectors pins TuplesChecksum and CountersChecksum to fixed
// values: workers stamp them and coordinators verify them, so nodes on two
// builds agree only while the hash of a batch does not change.
func TestChecksumVectors(t *testing.T) {
	for _, c := range []struct {
		name string
		got  uint64
		want uint64
	}{
		{"empty batch", TuplesChecksum(nil), 0xcbf29ce484222325},
		{"one tuple", TuplesChecksum(checksumTuples[:1]), 0xd8a3ace06c1418d9},
		{"batch", TuplesChecksum(checksumTuples), 0x2b6482ed7bdee92e},
		{"counters", CountersChecksum(4, 2, 2), 0x473a38661ae015c1},
	} {
		if c.got != c.want {
			t.Errorf("%s: checksum %#x, want %#x", c.name, c.got, c.want)
		}
	}
}
