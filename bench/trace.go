package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one op share Req;
// Parent is the span that caused this one (0 for the op itself). All spans
// are recorded from the benchmark's own code, around calls into a layer.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Class  string `json:"class,omitempty"`
	Start  int64  `json:"start_ns"` // since the recorder was made
	End    int64  `json:"end_ns"`
	Count  int    `json:"count,omitempty"` // work done inside, e.g. tuples encoded
	Hop    bool   `json:"hop,omitempty"`   // recorded across an HTTP hop from its parent
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder, and one
// switched off, record nothing: the same code path then runs untraced.
type recorder struct {
	t0   time.Time
	on   atomic.Bool
	next atomic.Int64
	mu   sync.Mutex
	done []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// live is a started span.
type live struct {
	r *recorder
	s span
}

// start opens a span. req 0 allocates a fresh request id (a new op).
func (r *recorder) start(name string, parent, req int64, class string) live {
	if r == nil || !r.on.Load() {
		return live{}
	}
	id := r.next.Add(1)
	if req == 0 {
		req = id
	}
	return live{r, span{ID: id, Parent: parent, Req: req, Name: name, Class: class, Start: time.Since(r.t0).Nanoseconds()}}
}

func (l live) end() { l.endCount(0) }

// endCount closes the span, noting how much work it covered.
func (l live) endCount(n int) {
	if l.r == nil {
		return
	}
	l.s.End = time.Since(l.r.t0).Nanoseconds()
	l.s.Count = n
	l.r.mu.Lock()
	l.r.done = append(l.r.done, l.s)
	l.r.mu.Unlock()
}

func (r *recorder) spans() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.done...)
}

// Trace context crosses the HTTP hop in these headers.
const (
	hdrReq    = "X-Bench-Req"
	hdrParent = "X-Bench-Span"
)

func (l live) inject(h http.Header) {
	if l.r == nil {
		return
	}
	h.Set(hdrReq, strconv.FormatInt(l.s.Req, 10))
	h.Set(hdrParent, strconv.FormatInt(l.s.ID, 10))
}

func extract(h http.Header) (parent, req int64) {
	parent, _ = strconv.ParseInt(h.Get(hdrParent), 10, 64)
	req, _ = strconv.ParseInt(h.Get(hdrReq), 10, 64)
	return parent, req
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval its child spans cover. Children may overlap each other (parallel
// shard evaluations), so the covered part is the union of their intervals,
// clipped to the parent.
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// wallByLayer partitions every op's wall time among its spans' names: each
// instant goes to the deepest span covering it. Unlike self times, which
// count parallel parts once each, the shares of one op add up to its
// duration, so they can be checked against it.
func wallByLayer(spans []span) map[int64]map[string]int64 {
	byReq := map[int64][]span{}
	depth := map[int64]int{}
	for _, s := range spans { // ids grow with start order, so parents come first once sorted
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	out := make(map[int64]map[string]int64, len(byReq))
	for req, ss := range byReq {
		sort.Slice(ss, func(i, j int) bool { return ss[i].ID < ss[j].ID })
		cuts := make([]int64, 0, 2*len(ss))
		for _, s := range ss {
			depth[s.ID] = depth[s.Parent] + 1
			cuts = append(cuts, s.Start, s.End)
		}
		sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
		shares := map[string]int64{}
		for i := 1; i < len(cuts); i++ {
			lo, hi := cuts[i-1], cuts[i]
			if hi == lo {
				continue
			}
			best := -1
			for j, s := range ss {
				if s.Start <= lo && hi <= s.End && (best < 0 || depth[s.ID] > depth[ss[best].ID]) {
					best = j
				}
			}
			if best >= 0 {
				shares[ss[best].Name] += hi - lo
			}
		}
		out[req] = shares
	}
	return out
}

// checkNesting reports the first span that does not lie within its parent's
// interval, names a parent that was not recorded, or carries another request
// id than its parent.
func checkNesting(spans []span) error {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			return fmt.Errorf("span %d (%s) names parent %d, which was not recorded", s.ID, s.Name, s.Parent)
		case p.Req != s.Req:
			return fmt.Errorf("span %d (%s) has request id %d, its parent %s has %d", s.ID, s.Name, s.Req, p.Name, p.Req)
		case s.Start < p.Start || s.End > p.End:
			return fmt.Errorf("span %d (%s) [%d,%d] leaves its parent %s [%d,%d]", s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// tracedHandler serves the query and ingest endpoints as kokod does — same
// calls into the service, same encoding — with a span around each step, and
// hands every other path to the service's own handler.
//
// cur, when not nil, is kept pointed at the query span in flight, for
// shardEvalSpans to hang worker-side spans under.
func tracedHandler(svc service, rec *recorder, cur *atomic.Pointer[live]) http.Handler {
	inFlight := func(l *live) {
		if cur != nil {
			cur.Store(l)
		}
	}
	mux := http.NewServeMux()
	mux.Handle("/", svc.handler())
	writeJSON := func(w http.ResponseWriter, status int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		enc := json.NewEncoder(w)
		enc.SetEscapeHTML(false)
		_ = enc.Encode(v) // a client that went away is its own problem
	}
	fail := func(w http.ResponseWriter, err error) {
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": map[string]string{"code": "traced", "message": err.Error()}})
	}
	mux.HandleFunc("POST /v1/query", func(w http.ResponseWriter, r *http.Request) {
		parent, req := extract(r.Header)
		h := rec.start("server.handle", parent, req, "")
		h.s.Hop = true
		defer h.end()
		d := rec.start("server.decode", h.s.ID, req, "")
		var body queryRequest
		err := json.NewDecoder(r.Body).Decode(&body)
		d.end()
		if err != nil {
			fail(w, err)
			return
		}
		if r.URL.Query().Get("stream") == "1" {
			// Evaluation and encoding interleave line by line; one span
			// covers both.
			q := rec.start("server.query", h.s.ID, req, "")
			inFlight(&q)
			flusher, _ := w.(http.Flusher)
			enc := json.NewEncoder(w)
			enc.SetEscapeHTML(false)
			started, pending, tuples := false, 0, 0
			err := svc.stream(r.Context(), body, func(line any, isTuple bool) error {
				if !started {
					w.Header().Set("Content-Type", "application/x-ndjson")
					w.WriteHeader(http.StatusOK)
					started = true
				}
				if err := enc.Encode(line); err != nil {
					return err
				}
				if isTuple {
					tuples++
				}
				if pending++; flusher != nil && (pending >= 64 || !isTuple) {
					flusher.Flush()
					pending = 0
				}
				return nil
			})
			inFlight(nil)
			q.endCount(tuples)
			if err != nil && !started {
				fail(w, err)
			}
			return
		}
		q := rec.start("server.query", h.s.ID, req, "")
		inFlight(&q)
		resp, tuples, err := svc.query(r.Context(), body)
		inFlight(nil)
		q.endCount(tuples)
		if err != nil {
			fail(w, err)
			return
		}
		e := rec.start("server.encode", h.s.ID, req, "")
		writeJSON(w, http.StatusOK, resp)
		e.endCount(tuples)
	})
	mux.HandleFunc("POST /v1/corpora/{name}/documents", func(w http.ResponseWriter, r *http.Request) {
		parent, req := extract(r.Header)
		h := rec.start("server.handle", parent, req, "")
		h.s.Hop = true
		defer h.end()
		d := rec.start("server.decode", h.s.ID, req, "")
		var body ingestRequest
		err := json.NewDecoder(r.Body).Decode(&body)
		d.end()
		if err != nil {
			fail(w, err)
			return
		}
		q := rec.start("server.ingest", h.s.ID, req, "")
		resp, err := svc.ingest(r.PathValue("name"), body)
		q.end()
		if err != nil {
			fail(w, err)
			return
		}
		e := rec.start("server.encode", h.s.ID, req, "")
		writeJSON(w, http.StatusOK, resp)
		e.end()
	})
	return mux
}

// shardEvalSpans wraps a worker's handler so every shard evaluation it serves
// is recorded as a child of the coordinator-side query span in flight. The
// coordinator's remote client does not forward the benchmark's headers, so
// the link is made through cur, which the coordinator's traced handler keeps
// pointed at its query span; the scatter-gather replay has one closed-loop
// client, so at most one is in flight.
func shardEvalSpans(next http.Handler, rec *recorder, cur *atomic.Pointer[live]) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != shardEvalPath {
			next.ServeHTTP(w, r)
			return
		}
		var sp live
		if p := cur.Load(); p != nil && p.r != nil {
			sp = rec.start("remote.shard_eval", p.s.ID, p.s.Req, "")
			sp.s.Hop = true
		}
		next.ServeHTTP(w, r)
		sp.end()
	})
}
