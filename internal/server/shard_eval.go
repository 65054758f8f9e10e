package server

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/koko"
	"repro/koko/remote"
)

// handleShardEval is the worker side of distributed execution:
// POST /v1/internal/shard-eval evaluates exactly one shard of a local
// corpus and streams it back as NDJSON ChunkLines. The evaluation claims one
// slot of the same worker pool interactive queries use, so a coordinator
// fanning out cannot oversubscribe a worker that also serves direct traffic.
//
// The shard evaluates through the engine's streaming path and tuple batches
// leave while evaluation is still running, so the worker never materializes
// the shard's full result. Batches are already in global corpus coordinates
// and carry per-batch checksums; the terminal done line carries the
// counters-only summary, the after-Skip tuple count, the serving generation,
// and the end-of-stream checksum the coordinator cross-checks. Skip
// implements retry-resume: evaluation is deterministic and generation-pinned,
// so dropping the first Skip tuples re-creates exactly the suffix a resuming
// coordinator is missing. Errors after the 200 header travel as a terminal
// Error line. Each line is encoded by remote.AppendChunkLine into one buffer
// reused for the request, and flushed as soon as it is written.
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
	eng, gen, err := s.reg.Engine(req.Corpus)
	if err != nil {
		writeError(w, err)
		return
	}
	if req.Generation != 0 && req.Generation != gen {
		// The coordinator pinned a snapshot this worker no longer serves
		// (reload/ingest/compaction moved the corpus on). Answering with
		// different data would silently break the byte-identical merge.
		writeError(w, fmt.Errorf("corpus %q is at generation %d, request pinned %d: %w",
			req.Corpus, gen, req.Generation, ErrGenerationMoved))
		return
	}
	if req.Shard < 0 || req.Shard >= eng.NumShards() {
		writeBadRequest(w, fmt.Sprintf("shard %d out of range (corpus %q has %d)", req.Shard, req.Corpus, eng.NumShards()))
		return
	}
	parsed, err := koko.ParseQuery(req.Query)
	if err != nil {
		writeError(w, fmt.Errorf("%w: %v", ErrBadQuery, err))
		return
	}
	if err := s.Acquire(r.Context()); err != nil {
		writeError(w, err)
		return
	}
	defer s.Release()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
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
	skip := req.Skip
	sent := 0
	sum, err := eng.StreamShard(r.Context(), req.Shard, parsed, &koko.QueryOptions{Explain: req.Explain}, func(ts []koko.Tuple) error {
		if skip > 0 {
			if skip >= len(ts) {
				skip -= len(ts)
				return nil
			}
			ts = ts[skip:]
			skip = 0
		}
		if err := line(remote.ChunkLine{Tuples: ts, Checksum: remote.TuplesChecksum(ts)}); err != nil {
			return err
		}
		sent += len(ts)
		return nil
	})
	if err != nil {
		_ = line(remote.ChunkLine{Error: err.Error()})
		return
	}
	s.metrics.shardEvalsServed.Add(1)
	var cand, matched int
	if sum != nil {
		cand, matched = sum.Candidates, sum.Matched
	}
	_ = line(remote.ChunkLine{Done: &remote.ChunkDone{
		Summary:    sum,
		Tuples:     sent,
		Generation: gen,
		Checksum:   remote.CountersChecksum(cand, matched, sent),
	}})
}
