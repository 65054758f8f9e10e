package server

import (
	"encoding/json"
	"net/http"
	"strconv"

	"repro/internal/server/jobs"
	"repro/koko"
)

// The /v1/jobs endpoints: submit a query batch, poll status, fetch the
// prefix of the results streamed so far (before the job finishes, if
// desired), and cancel. Job results encode tuples through the same tuple
// encoder as interactive queries, so a finished job's results are
// byte-identical to the equivalent buffered /v1/query responses.

func (s *Service) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var spec jobs.Spec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&spec); err != nil {
		writeBadRequest(w, "invalid JSON body: "+err.Error())
		return
	}
	st, err := s.jobs.Submit(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Service) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.List()})
}

func (s *Service) handleJobGet(w http.ResponseWriter, r *http.Request) {
	st, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleJobResults(w http.ResponseWriter, r *http.Request) {
	res, err := s.jobs.Results(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeAppended(w, http.StatusOK, func(dst []byte) ([]byte, error) { return appendJobResults(dst, &res) })
}

// appendJobResults appends the JSON form of a job's (possibly partial)
// results and a newline. A query's "complete" reports whether every shard
// contributed, so a client can tell "empty" from "not finished yet".
func appendJobResults(dst []byte, res *jobs.Results) ([]byte, error) {
	dst = koko.AppendString(append(dst, `{"id":`...), res.ID)
	dst = koko.AppendString(append(dst, `,"state":`...), string(res.State))
	dst = koko.AppendString(append(dst, `,"corpus":`...), res.Corpus)
	dst = strconv.AppendUint(append(dst, `,"generation":`...), res.Generation, 10)
	if res.Error != "" {
		dst = koko.AppendString(append(dst, `,"error":`...), res.Error)
	}
	dst = append(dst, `,"queries":[`...)
	for i, q := range res.Queries {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(append(dst, `{"index":`...), int64(q.Index), 10)
		dst = koko.AppendString(append(dst, `,"canonical":`...), q.Canonical)
		dst = strconv.AppendBool(append(dst, `,"complete":`...), q.Complete)
		dst = strconv.AppendInt(append(dst, `,"shards_total":`...), int64(q.ShardsTotal), 10)
		dst = strconv.AppendInt(append(dst, `,"shards_done":`...), int64(q.ShardsDone), 10)
		var err error
		if dst, err = koko.AppendTuples(append(dst, `,"tuples":`...), q.Result.Tuples); err != nil {
			return dst, err
		}
		dst = strconv.AppendInt(append(dst, `,"candidates":`...), int64(q.Result.Candidates), 10)
		dst = strconv.AppendInt(append(dst, `,"matched":`...), int64(q.Result.Matched), 10)
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...), nil
}

func (s *Service) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	st, err := s.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}
