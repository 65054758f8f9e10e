package main

import (
	"sync"
	"time"
)

// queryObs is one verified query op of a timed phase.
type queryObs struct {
	class  string  // report class
	stream bool    // answered as NDJSON
	ms     float64 // request sent to last byte read
	ttft   float64 // stream ops: request sent to first tuple line
	cycle  int     // index of the cycle it ran in
}

// sample is the raw measurements of a timed phase.
type sample struct {
	obs       []queryObs
	cal       []float64 // calibration kernel time before each cycle started, ms
	cycleWall []float64 // seconds per completed cycle
	cycleIdx  []int     // which cycle each cycleWall entry is
	ingest    []float64 // ingest acknowledgement latency, ms
	attempted int
	failed    int
	errs      []string
	mu        sync.Mutex // guards ingest, attempted, failed and errs; only the reader touches the rest
}

func newSample() *sample { return &sample{} }

func (s *sample) attempt() {
	s.mu.Lock()
	s.attempted++
	s.mu.Unlock()
}

func (s *sample) fail(err error) {
	s.mu.Lock()
	s.failed++
	if len(s.errs) < 5 {
		s.errs = append(s.errs, err.Error())
	}
	s.mu.Unlock()
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// startCycle notes the machine's speed and returns the new cycle's index.
// With idle false the kernel is not run (the system under test is busy and
// would slow it) and the previous reading stands in.
func (s *sample) startCycle(idle bool) int {
	switch {
	case idle || len(s.cal) == 0:
		s.cal = append(s.cal, calibrate())
	default:
		s.cal = append(s.cal, s.cal[len(s.cal)-1])
	}
	return len(s.cal) - 1
}

func (s *sample) endCycle(cycle int, wall time.Duration) {
	s.cycleWall = append(s.cycleWall, wall.Seconds())
	s.cycleIdx = append(s.cycleIdx, cycle)
}

func (s *sample) recordQuery(o op, a answer, cycle int) {
	s.obs = append(s.obs, queryObs{class: reportClass(o.Class), stream: o.Class == classStream,
		ms: msOf(a.Total), ttft: msOf(a.TTFT), cycle: cycle})
}

// timings are a sample's query measurements, each scaled by its cycle's
// factor.
type timings struct {
	byClass   map[string][]float64 // latency ms by report class
	all       []float64            // every query latency, ms
	ttft      []float64            // stream ops: ms to first tuple
	streamTot []float64            // stream ops: ms to the end of the stream
	cycleWall []float64            // seconds per completed cycle
}

// scaled applies one factor per cycle; nil factors leave times as measured.
func (s *sample) scaled(factors []float64) timings {
	f := func(cycle int) float64 {
		if factors == nil {
			return 1
		}
		return factors[cycle]
	}
	t := timings{byClass: map[string][]float64{}}
	for _, o := range s.obs {
		ms := o.ms * f(o.cycle)
		t.byClass[o.class] = append(t.byClass[o.class], ms)
		t.all = append(t.all, ms)
		if o.stream {
			t.ttft = append(t.ttft, o.ttft*f(o.cycle))
			t.streamTot = append(t.streamTot, ms)
		}
	}
	for i, w := range s.cycleWall {
		t.cycleWall = append(t.cycleWall, w*f(s.cycleIdx[i]))
	}
	return t
}
