package server

import (
	"encoding/json"
	"net/http"

	"repro/internal/server/jobs"
)

// The /v1/jobs endpoints: submit a query batch, poll status, fetch the
// prefix of the results streamed so far (before the job finishes, if
// desired), and cancel. Job results render tuples through the same conversion as
// interactive queries, so a finished job's results are byte-identical to
// the equivalent buffered /v1/query responses.

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

// jobResultsResponse is the JSON form of a job's (possibly partial)
// results.
type jobResultsResponse struct {
	ID         string            `json:"id"`
	State      jobs.State        `json:"state"`
	Corpus     string            `json:"corpus"`
	Generation uint64            `json:"generation"`
	Error      string            `json:"error,omitempty"`
	Queries    []jobQueryResults `json:"queries"`
}

// jobQueryResults is one query's result prefix: complete reports
// whether every shard contributed, so a client can distinguish "empty" from
// "not finished yet".
type jobQueryResults struct {
	Index       int           `json:"index"`
	Canonical   string        `json:"canonical"`
	Complete    bool          `json:"complete"`
	ShardsTotal int           `json:"shards_total"`
	ShardsDone  int           `json:"shards_done"`
	Tuples      []TupleResult `json:"tuples"`
	Candidates  int           `json:"candidates"`
	Matched     int           `json:"matched"`
}

func (s *Service) handleJobResults(w http.ResponseWriter, r *http.Request) {
	res, err := s.jobs.Results(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	resp := jobResultsResponse{
		ID:         res.ID,
		State:      res.State,
		Corpus:     res.Corpus,
		Generation: res.Generation,
		Error:      res.Error,
		Queries:    make([]jobQueryResults, 0, len(res.Queries)),
	}
	for _, q := range res.Queries {
		jq := jobQueryResults{
			Index:       q.Index,
			Canonical:   q.Canonical,
			Complete:    q.Complete,
			ShardsTotal: q.ShardsTotal,
			ShardsDone:  q.ShardsDone,
			Tuples:      make([]TupleResult, 0, len(q.Result.Tuples)),
			Candidates:  q.Result.Candidates,
			Matched:     q.Result.Matched,
		}
		for _, t := range q.Result.Tuples {
			jq.Tuples = append(jq.Tuples, tupleResultOf(t))
		}
		resp.Queries = append(resp.Queries, jq)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	st, err := s.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}
