package remote

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/koko"
)

// TestHedgeLatencyExcludesConsumerPacing: the adaptive hedge threshold is a
// race for the first line (the first batch claims the stream), so the
// latency a chunked success records must be the time to that line — not the
// whole stream, which includes time blocked in emit while the ordered merge
// or a paused client holds the shard back. A consumer that blocks 300ms in
// emit must leave the node's samples far below 300ms.
func TestHedgeLatencyExcludesConsumerPacing(t *testing.T) {
	batch := []koko.Tuple{{SentenceID: 1, Document: 0, Values: []string{"Cafe Vita"}}}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		line, _ := AppendChunkLine(nil, &ChunkLine{Tuples: koko.BatchOf(batch)})
		line, _ = AppendChunkLine(line, &ChunkLine{Done: &ChunkDone{
			Summary:  &koko.Result{Candidates: 1, Matched: 1},
			Tuples:   1,
			Checksum: CountersChecksum(1, 1, 1),
		}})
		w.Write(line)
	}))
	t.Cleanup(ts.Close)

	const pacing = 300 * time.Millisecond
	p := NewPool(PoolConfig{AttemptTimeout: 5 * time.Second, HedgeAfter: -1})
	n := p.Node(ts.URL)
	for i := 0; i < 3; i++ {
		_, sent, err := p.EvalShardChunked(context.Background(), n, &ShardEvalRequest{Corpus: "c", Query: "q"}, func(koko.Batch) error {
			time.Sleep(pacing)
			return nil
		})
		if err != nil || sent != 1 {
			t.Fatalf("attempt %d: sent %d, err %v", i, sent, err)
		}
	}
	n.mu.Lock()
	samples := append([]time.Duration(nil), n.lat[:n.latLen]...)
	n.mu.Unlock()
	if len(samples) != 3 {
		t.Fatalf("recorded %d latency samples, want 3", len(samples))
	}
	for i, d := range samples {
		if d <= 0 || d >= pacing/2 {
			t.Errorf("sample %d = %s; want the time to the first line, well under the %s consumer pacing", i, d, pacing)
		}
	}
}
