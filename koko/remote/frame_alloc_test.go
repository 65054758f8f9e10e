//go:build !race

package remote

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/koko"
)

// TestChunkLineAllocs pins what a coordinator's framing of a full batch
// line costs in allocations: a constant, not one or more per tuple or value
// as with encoding/json (1 041 to decode such a line). The measured count
// is 2: the batch's copy of the array and its decoded-state record. Run
// without -race, whose instrumentation allocates on its own.
func TestChunkLineAllocs(t *testing.T) {
	const ceiling = 2
	line, err := AppendChunkLine(nil, &ChunkLine{Tuples: koko.BatchOf(batchTuples(256))})
	if err != nil {
		t.Fatal(err)
	}
	var l ChunkLine
	allocs := testing.AllocsPerRun(50, func() {
		if err := ParseChunkLine(line, &l); err != nil {
			t.Fatal(err)
		}
	})
	if l.Tuples.Len() != 256 {
		t.Fatalf("framed %d tuples, want 256", l.Tuples.Len())
	}
	if allocs > ceiling {
		t.Fatalf("ParseChunkLine of a 256-tuple, 2-value line: %.0f allocations, ceiling %d", allocs, ceiling)
	}
}

// TestTuplesChecksumAllocs: every worker encodes and CRC-stamps every
// batch, so a batch line written into a reused buffer must cost no
// allocation while a tuple has at most 8 scores, whose keys the encoder
// sorts in a stack buffer.
func TestTuplesChecksumAllocs(t *testing.T) {
	l := &ChunkLine{Tuples: koko.BatchOf(scoredTuples(64))}
	buf, err := AppendChunkLine(nil, l)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { buf, _ = AppendChunkLine(buf[:0], l) }); allocs != 0 {
		t.Fatalf("AppendChunkLine of 64 tuples with 8 scores each: %.1f allocations, want 0", allocs)
	}
}

// scoredTuples is n explained tuples with 8 scores each.
func scoredTuples(n int) []koko.Tuple {
	ts := make([]koko.Tuple, n)
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
	return ts
}

// TestForwardedBatchAllocs: a coordinator answering from a worker's
// batches copies their bytes; it neither decodes nor re-encodes a tuple. A
// worker serving a canned 4-line, 1 024-tuple scored shard-eval body,
// drained through Engine.Run and each batch's AppendJSON, must cost a
// fraction of an allocation per tuple (decoding alone made several per
// scored tuple). The measured count is 228 to 232 per run, 0.22 per tuple,
// nearly all of it the HTTP round trip, the line buffer and the stream's
// fan-out; each line adds two (its array's copy and its batch record).
func TestForwardedBatchAllocs(t *testing.T) {
	const perTuple = 0.3
	var body []byte
	for b := 0; b < 4; b++ {
		ts := scoredTuples(256)
		for i := range ts {
			ts[i].SentenceID += 256 * b
		}
		var err error
		if body, err = AppendChunkLine(body, &ChunkLine{Tuples: koko.BatchOf(ts)}); err != nil {
			t.Fatal(err)
		}
	}
	body, err := AppendChunkLine(body, &ChunkLine{Done: &ChunkDone{
		Summary: &koko.Result{Candidates: 1024, Matched: 1024}, Tuples: 1024, Checksum: CountersChecksum(1024, 1024, 1024),
	}})
	if err != nil {
		t.Fatal(err)
	}
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write(body)
	}))
	t.Cleanup(worker.Close)
	eng := NewEngine(NewPool(PoolConfig{HedgeAfter: -1}), EngineConfig{
		Corpus:    "c",
		Placement: koko.Placement{Replicas: [][]string{{worker.URL}}},
	})
	p, err := koko.ParseQuery(`extract x:Entity from "b" if ()`)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	drain := func() {
		seq, err := eng.Run(context.Background(), p, nil)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for ev := range seq.Events() {
			if ev.Shard == nil {
				if out, err = ev.Batch.AppendJSON(out[:0]); err != nil {
					t.Fatal(err)
				}
				n += ev.Batch.Len()
			}
		}
		if err := seq.Err(); err != nil || n != 1024 {
			t.Fatalf("drained %d tuples, err %v; want 1024", n, err)
		}
	}
	drain() // warm the connection and the buffers
	allocs := testing.AllocsPerRun(20, drain)
	t.Logf("%.0f allocations per run, %.3f per tuple", allocs, allocs/1024)
	if allocs/1024 > perTuple {
		t.Fatalf("forwarding 1 024 tuples: %.0f allocations, %.3f per tuple; ceiling %.2f", allocs, allocs/1024, perTuple)
	}
}
