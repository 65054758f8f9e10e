//go:build !race

package remote

import (
	"fmt"
	"testing"

	"repro/koko"
)

// TestChunkLineAllocs pins what parsing a full batch costs in allocations:
// a constant, not one or more per tuple or value as with encoding/json
// (1 041 here). The measured count is 5: the line's string,
// the tuple slice, and the Values arena (two growths while the first tuple
// is read, then one reservation for the rest). Run without -race, whose
// instrumentation allocates on its own.
func TestChunkLineAllocs(t *testing.T) {
	const ceiling = 5
	line, err := AppendChunkLine(nil, batchLine(256))
	if err != nil {
		t.Fatal(err)
	}
	var l ChunkLine
	allocs := testing.AllocsPerRun(50, func() {
		if err := ParseChunkLine(line, &l); err != nil {
			t.Fatal(err)
		}
	})
	if len(l.Tuples) != 256 {
		t.Fatalf("parsed %d tuples, want 256", len(l.Tuples))
	}
	if allocs > ceiling {
		t.Fatalf("ParseChunkLine of a 256-tuple, 2-value line: %.0f allocations, ceiling %d", allocs, ceiling)
	}
}

// TestTuplesChecksumAllocs: workers and coordinators hash every batch, so
// TuplesChecksum must cost no allocation per tuple while a tuple has at
// most 8 scores, whose keys it sorts in a stack buffer.
func TestTuplesChecksumAllocs(t *testing.T) {
	ts := make([]koko.Tuple, 64)
	for i := range ts {
		scores := map[string]float64{}
		for k := range 8 {
			scores[fmt.Sprintf("v%d", 7-k)] = float64(k) / 8
		}
		ts[i] = koko.Tuple{SentenceID: i, Document: i / 4, Scores: scores,
			Values:   []string{"a value longer than a 32-byte conversion buffer", "b"},
			Evidence: []koko.Evidence{{Variable: "v0", Condition: `str(v0) contains "Cafe"`, Weight: 1, Confidence: 0.5, Contribution: 0.5}},
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { TuplesChecksum(ts) }); allocs != 0 {
		t.Fatalf("TuplesChecksum of 64 tuples with 8 scores each: %.1f allocations, want 0", allocs)
	}
}
