//go:build !race

package remote

import "testing"

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
