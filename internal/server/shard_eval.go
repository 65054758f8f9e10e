package server

import (
	"encoding/json"
	"net/http"

	"repro/koko"
	"repro/koko/remote"
)

// handleShardEval is the worker side of distributed execution:
// POST /v1/internal/shard-eval is a one-shard run of a local corpus with a
// chunk-line drain, so it holds a slot of the pool interactive queries use
// and is counted and classified like any other query. Each batch the shard
// emits leaves at once as one NDJSON ChunkLine — the batch in the client's
// JSON form, which the coordinator forwards as it is, stamped with its
// CRC-32C (remote.AppendChunkLine, into a reused buffer, then flushed) —
// so the worker never materializes the shard's result; the done line
// carries the counters-only summary, the after-Skip tuple count, the
// serving generation and the end-of-stream checksum. Skip implements
// retry-resume: evaluation is deterministic and generation-pinned, so
// dropping the first Skip tuples re-creates exactly the suffix a resuming
// coordinator is missing. Errors after the 200 header travel as a terminal
// Error line.
func (s *Service) handleShardEval(w http.ResponseWriter, r *http.Request) {
	var req remote.ShardEvalRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeBadRequest(w, "invalid JSON body: "+err.Error())
		return
	}
	if req.Corpus == "" || req.Query == "" {
		writeBadRequest(w, `"corpus" and "query" are required`)
		return
	}
	flusher, _ := w.(http.Flusher)
	var buf []byte
	line := func(l remote.ChunkLine) error {
		var err error
		if buf, err = remote.AppendChunkLine(buf[:0], &l); err != nil {
			return err
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	skip, started := req.Skip, false
	a, err := s.run(r.Context(), QueryRequest{Corpus: req.Corpus, Query: req.Query, Explain: req.Explain},
		scope{one: true, shard: req.Shard, gen: req.Generation},
		func(seq *koko.TupleSeq, hit *drained) (*drained, error) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			started = true
			return batches(func(b koko.Batch) (int, error) {
				if skip >= b.Len() {
					skip -= b.Len()
					return 0, nil
				}
				if skip > 0 {
					ts, err := b.Tuples()
					if err != nil {
						return 0, err
					}
					b, skip = koko.BatchOf(ts[skip:]), 0
				}
				if err := line(remote.ChunkLine{Tuples: b}); err != nil {
					return 0, consumerGone{err}
				}
				return b.Len(), nil
			})(seq, hit)
		})
	switch {
	case err != nil && !started:
		writeError(w, err)
	case err != nil:
		_ = line(remote.ChunkLine{Error: err.Error()})
	default:
		s.metrics.shardEvalsServed.Add(1)
		_ = line(remote.ChunkLine{Done: &remote.ChunkDone{
			Summary:    a.res,
			Tuples:     a.tuples,
			Generation: a.gen,
			Checksum:   remote.CountersChecksum(a.res.Candidates, a.res.Matched, a.tuples),
		}})
	}
}
