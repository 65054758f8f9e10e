package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/server/jobs"
	"repro/koko"
	"repro/koko/remote"
)

// Handler returns the kokod HTTP API over the service.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/validate", s.handleValidate)
	mux.HandleFunc("GET /v1/corpora", s.handleCorpora)
	mux.HandleFunc("GET /v1/corpora/{name}/stats", s.handleStats)
	mux.HandleFunc("POST /v1/corpora/{name}/reload", s.handleReload)
	mux.HandleFunc("POST /v1/corpora/{name}/documents", s.handleIngest)
	mux.HandleFunc("DELETE /v1/corpora/{name}/documents/{doc}", s.handleDocumentDelete)
	mux.HandleFunc("POST /v1/corpora/{name}/compact", s.handleCompact)
	mux.HandleFunc("DELETE /v1/corpora/{name}", s.handleCorpusDelete)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleJobResults)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobDelete)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	// Worker-side endpoint of distributed execution: a coordinator's remote
	// engine evaluates individual shards here.
	mux.HandleFunc("POST /v1/internal/shard-eval", s.handleShardEval)
	return mux
}

// ErrorBody is the unified error envelope every /v1 endpoint answers
// failures with: {"error":{"code":"...","message":"..."}}. Code is a stable
// machine-readable identifier (the table in the README); Message is the
// human-readable detail and carries no stability guarantee.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorResponse struct {
	Error ErrorBody `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	writeAppended(w, status, func(dst []byte) ([]byte, error) { return remote.AppendJSON(dst, v) })
}

// writeBadRequest answers a malformed request (undecodable body, missing
// required fields) — failures detected before the error ever becomes a
// sentinel writeError could classify.
func writeBadRequest(w http.ResponseWriter, msg string) {
	writeJSON(w, http.StatusBadRequest, errorResponse{Error: ErrorBody{Code: "bad_request", Message: msg}})
}

func writeError(w http.ResponseWriter, err error) {
	status, code := errorCode(err)
	writeJSON(w, status, errorResponse{Error: ErrorBody{Code: code, Message: err.Error()}})
}

// errorCode maps an error to its HTTP status and stable code (the README's
// table); anything unrecognized, a damaged store among them, is internal.
func errorCode(err error) (status int, code string) {
	switch {
	case errors.Is(err, ErrNotFound), errors.Is(err, jobs.ErrNotFound), errors.Is(err, koko.ErrNoDocument),
		errors.Is(err, koko.ErrClosed): // a corpus is closed once removed or replaced
		return http.StatusNotFound, "not_found"
	case errors.Is(err, ErrBadQuery):
		return http.StatusBadRequest, "bad_query"
	case errors.Is(err, jobs.ErrBadSpec):
		return http.StatusBadRequest, "bad_spec"
	case errors.Is(err, koko.ErrEmptyDocument):
		return http.StatusBadRequest, "empty_document"
	case errors.Is(err, ErrNotReloadable):
		return http.StatusConflict, "not_reloadable"
	case errors.Is(err, ErrRemoteCorpus):
		return http.StatusConflict, "remote_corpus"
	case errors.Is(err, ErrGenerationMoved):
		return http.StatusConflict, "generation_moved"
	case errors.Is(err, jobs.ErrLimit):
		return http.StatusTooManyRequests, "job_limit"
	case errors.Is(err, jobs.ErrDraining):
		return http.StatusServiceUnavailable, "draining"
	case errors.Is(err, remote.ErrShardUnavailable):
		// Every replica of some shard failed: the backend's fault, not the
		// client's.
		return http.StatusBadGateway, "shard_unavailable"
	}
	return http.StatusInternalServerError, "internal"
}

// maxBodyBytes bounds request bodies: queries are text a human wrote, not
// bulk data.
const maxBodyBytes = 1 << 20

func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeBadRequest(w, "invalid JSON body: "+err.Error())
		return
	}
	if req.Corpus == "" || req.Query == "" {
		writeBadRequest(w, `"corpus" and "query" are required`)
		return
	}
	if wantsStream(r) {
		// Degradation markers have nowhere to go in an NDJSON stream that
		// has already emitted tuples, so partial=ok is buffered-only.
		s.handleQueryStream(w, r, req)
		return
	}
	if r.URL.Query().Get("partial") == "ok" {
		req.Partial = true
	}
	writeAppended(w, http.StatusOK, func(dst []byte) ([]byte, error) { return s.appendQuery(r.Context(), req, dst) })
}

// bodies keeps answer bodies' buffers between requests: grown afresh for
// every answer, they were a third of kokod's allocation.
var bodies = sync.Pool{New: func() any { return new([]byte) }}

// writeAppended answers status with the JSON body build appends, or with
// the error build returns: the body is whole before the status line.
func writeAppended(w http.ResponseWriter, status int, build func([]byte) ([]byte, error)) {
	buf := bodies.Get().(*[]byte)
	body, err := build((*buf)[:0])
	*buf = body[:0]
	defer bodies.Put(buf) // Write does not keep body
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// appendQuery answers req as Query does, appending the JSON of its
// QueryResponse and a newline to dst: the bytes a json.Encoder with HTML
// escaping off writes. Each batch's JSON array is appended as the shards
// deliver it — a forwarded batch's bytes as the worker sent them — and
// joined to the array so far, not collected first (the NDJSON answer's
// drain), and a degraded run's failed shard cuts its tuples out again, as
// Collect drops them. An encoder error (a non-finite score) is returned
// once the query has run, so it answers 500, not 400.
func (s *Service) appendQuery(ctx context.Context, req QueryRequest, dst []byte) ([]byte, error) {
	t0 := time.Now()
	var sc scope
	if eng, gen, err := s.reg.Engine(req.Corpus); err == nil {
		sc.eng, sc.gen = eng, gen // the generation precedes the tuples; run reports a missing corpus
	}
	dst = koko.AppendString(append(dst, `{"corpus":`...), req.Corpus)
	dst = strconv.AppendUint(append(dst, `,"generation":`...), sc.gen, 10)
	dst = append(dst, `,"tuples":`...)
	var encErr error
	// n tuples are in the open array (none: not opened yet); markLen is the
	// body's length at the last completed shard.
	n, markLen := 0, len(dst)
	a, err := s.run(ctx, req, sc, s.answerDrain(req.NoCache, func(b koko.Batch) error {
		if encErr != nil {
			return nil
		}
		at := len(dst)
		if dst, encErr = b.AppendJSON(dst); encErr == nil {
			if n > 0 {
				dst[at] = ',' // the batch's '[' joins the open array
			}
			dst, n = dst[:len(dst)-1], n+b.Len() // its ']' is left off
		}
		return nil
	}, func(sh *koko.ShardEnd, _, total int) error {
		if sh.Failed {
			dst = dst[:markLen]
		}
		n, markLen = total, len(dst)
		return nil
	}))
	if err == nil {
		err = encErr
	}
	if err != nil {
		return dst, err
	}
	if n == 0 {
		dst = append(dst, '[')
	}
	stats := a.stats()
	stats.ServiceMillis = ms(time.Since(t0))
	at := len(dst) + 1
	if dst, err = remote.AppendJSON(append(dst, ']'), &stats); err == nil {
		dst[at] = ',' // the stats' opening brace becomes the comma before their fields
	}
	return dst, err
}

type validateRequest struct {
	Query string `json:"query"`
}

type validateResponse struct {
	Valid bool   `json:"valid"`
	Error string `json:"error,omitempty"`
	// Canonical is the normalized form the result cache keys on.
	Canonical string `json:"canonical,omitempty"`
}

func (s *Service) handleValidate(w http.ResponseWriter, r *http.Request) {
	var req validateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeBadRequest(w, "invalid JSON body: "+err.Error())
		return
	}
	if err := s.Validate(req.Query); err != nil {
		writeJSON(w, http.StatusOK, validateResponse{Valid: false, Error: err.Error()})
		return
	}
	canon, _ := koko.Canonical(req.Query)
	writeJSON(w, http.StatusOK, validateResponse{Valid: true, Canonical: canon})
}

func (s *Service) handleCorpora(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"corpora": s.reg.List()})
}

type statsResponse struct {
	CorpusInfo
	// Index aggregates across shards (summed sizes for a sharded corpus);
	// Shards breaks the same numbers out per shard.
	Index  indexStatsJSON   `json:"index"`
	Shards []shardStatsJSON `json:"shard_stats"`
}

type indexStatsJSON struct {
	Words          int     `json:"words"`
	Entities       int     `json:"entities"`
	PLNodes        int     `json:"pl_nodes"`
	POSNodes       int     `json:"pos_nodes"`
	PLCompression  float64 `json:"pl_compression"`
	POSCompression float64 `json:"pos_compression"`
}

type shardStatsJSON struct {
	Shard     int            `json:"shard"`
	Documents int            `json:"documents"`
	Sentences int            `json:"sentences"`
	Tokens    int            `json:"tokens,omitempty"`
	Index     indexStatsJSON `json:"index"`
	// Delta marks the mutable corpus's sealed delta riding along as the
	// last shard (ingested documents awaiting compaction).
	Delta bool `json:"delta,omitempty"`
}

func indexStatsOf(st koko.IndexStats) indexStatsJSON {
	return indexStatsJSON{
		Words: st.Words, Entities: st.Entities,
		PLNodes: st.PLNodes, POSNodes: st.POSNodes,
		PLCompression: st.PLCompression, POSCompression: st.POSCompression,
	}
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	// One registry resolution for all three pieces, so a concurrent reload
	// can never produce a response mixing two generations.
	info, st, sh, err := s.reg.Describe(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	resp := statsResponse{CorpusInfo: info, Index: indexStatsOf(st)}
	for _, ss := range sh {
		resp.Shards = append(resp.Shards, shardStatsJSON{
			Shard:     ss.Shard,
			Documents: ss.Documents,
			Sentences: ss.Sentences,
			Tokens:    ss.Tokens,
			Index:     indexStatsOf(ss.Index),
			Delta:     ss.Delta,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleReload(w http.ResponseWriter, r *http.Request) {
	info, err := s.Reload(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "corpora": s.reg.Len()})
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}
