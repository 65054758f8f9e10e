package remote

import (
	"bytes"
	"hash/crc32"
	"math"
	"testing"

	"repro/koko"
)

// checksumTuples covers every field a batch line carries: ids, nil and
// empty values, scores with keys out of sorted order, evidence, and bytes
// outside ASCII.
var checksumTuples = []koko.Tuple{
	{SentenceID: 12, Document: 3, Values: []string{"Cafe Vita", "espresso"}},
	{SentenceID: -1, Document: 0, Values: []string{}, Scores: map[string]float64{"z": 0}},
	{SentenceID: 7, Document: 2, Values: []string{"", "日本\xff"},
		Scores: map[string]float64{"y": 0.25, "x": 0.7, "\xff": -1, "a b": 1e300},
		Evidence: []koko.Evidence{
			{Variable: "x", Condition: `str(x) contains "Cafe"`, Weight: 0.6, Confidence: 1, Contribution: 0.6},
			{Variable: "y", Condition: "", Weight: 1e-7, Confidence: 0, Contribution: math.Copysign(0, -1)},
		}},
}

// lineCRC is the crc32c a batch line of ts is stamped with.
func lineCRC(t *testing.T, ts []koko.Tuple) uint32 {
	t.Helper()
	line, err := AppendChunkLine(nil, &ChunkLine{Tuples: koko.BatchOf(ts)})
	if err != nil {
		t.Fatal(err)
	}
	crc, ok := parseCRC(line[bytes.LastIndex(line, []byte(crcKey))+len(crcKey) : len(line)-len("}\n")])
	if !ok {
		t.Fatalf("no crc32c in %q", line)
	}
	return crc
}

// TestChecksumVectors pins the checksums to fixed values: workers stamp
// them and coordinators verify them, so nodes on two builds agree only
// while a batch's bytes and their CRC do not change. The first vector is
// the standard check value of CRC-32C (Castagnoli), which block store
// blocks use too.
func TestChecksumVectors(t *testing.T) {
	for _, c := range []struct {
		name string
		got  uint64
		want uint64
	}{
		{"CRC-32C check value", uint64(crc32.Checksum([]byte("123456789"), castagnoli)), 0xe3069283},
		{"one tuple", uint64(lineCRC(t, checksumTuples[:1])), 0x893c3541},
		{"batch", uint64(lineCRC(t, checksumTuples)), 0x4ee808cc},
		{"counters", CountersChecksum(4, 2, 2), 0x473a38661ae015c1},
	} {
		if c.got != c.want {
			t.Errorf("%s: checksum %#x, want %#x", c.name, c.got, c.want)
		}
	}
}
