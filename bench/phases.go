package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// digestKey separates a query's buffered and streamed encodings.
func digestKey(o op) string { return o.Class[:1] + ":" + o.Q.ID }

// warmUp runs one cycle against the front child, compares every answer tuple
// by tuple with the oracle, and returns the digest of each verified answer
// for the cheap per-op check of the timed phase.
func warmUp(cl *client, t *topology, in *inputs, or *oracle) (map[string]digest, error) {
	digests := map[string]digest{}
	for _, o := range in.cycle {
		a, err := cl.runQuery(t.front.url, o, true)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if d := sameTuples(a.Tuples, or.want[o.Q.ID]); d != "" {
			return nil, fmt.Errorf("warm-up %s (%s): %s", o.Q.ID, o.Class, d)
		}
		digests[digestKey(o)] = a.Digest
	}
	return digests, nil
}

// checkStatic verifies a timed answer over an unchanging corpus.
func checkStatic(o op, a answer, digests map[string]digest) error {
	if want := digests[digestKey(o)]; a.Digest != want {
		return fmt.Errorf("%s (%s): answer digest %+v, verified answer had %+v", o.Q.ID, o.Class, a.Digest, want)
	}
	return nil
}

// readPhase is the timed phase of the read workloads: whole cycles from one
// client until the time is up.
func readPhase(cl *client, t *topology, in *inputs, digests map[string]digest, seconds float64, s *sample) {
	start := time.Now()
	for time.Since(start).Seconds() < seconds {
		cycle := s.startCycle(true) // closed loop: nothing is in flight between cycles
		c0 := time.Now()
		for _, o := range in.cycle {
			s.attempt()
			a, err := cl.runQuery(t.front.url, o, false)
			if err == nil {
				err = checkStatic(o, a, digests)
			}
			if err != nil {
				s.fail(err)
				continue
			}
			s.recordQuery(o, a, cycle)
		}
		s.endCycle(cycle, time.Since(c0))
	}
}

// ingestPhase is the timed phase of ingest_while_query: a writer posts pool
// documents in bursts on a fixed schedule (closed loop within a burst) until
// the time is up while a reader runs cycles; the reader stops after the op
// in flight when the writer is done. The writer starts at pool document
// firstDoc (the corpus must hold exactly the ones before it). It returns the
// number of documents acknowledged so far, firstDoc included, and the time
// the writer spent inside its bursts.
func ingestPhase(t *topology, in *inputs, or *oracle, digests map[string]digest, sz sizes, seconds float64, firstDoc int, rec *recorder, s *sample) (int, time.Duration) {
	// Request bodies are made before the clock starts, so that the
	// generator's own cost stays out of the writer's timings.
	bodies := make([][]byte, in.pool.NumDocs())
	for i := range bodies {
		bodies[i] = ingestBody(in.pool, i)
	}
	var sent, acked atomic.Int64
	sent.Store(int64(firstDoc))
	acked.Store(int64(firstDoc))
	var stop, bursting atomic.Bool
	base := in.wiki.NumDocs()
	var busy time.Duration // time the writer spent inside bursts
	late := 0              // bursts that began more than a tenth of the period late
	var wg sync.WaitGroup
	wg.Add(2)
	start := time.Now()
	go func() { // writer
		defer wg.Done()
		defer stop.Store(true)
		cl := newClient()
		cl.rec = rec
		defer cl.close()
		i := firstDoc
		for due := start; i < len(bodies) && time.Since(start).Seconds() < seconds; due = due.Add(sz.BurstEvery) {
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			} else if wait < -sz.BurstEvery/10 {
				late++
			}
			bursting.Store(true)
			b0 := time.Now()
			for j := 0; j < sz.BurstDocs && i < len(bodies); j++ {
				s.attempt()
				sent.Store(int64(i + 1))
				took, err := cl.runIngest(t.front.url, "wiki", bodies[i], base+i)
				if err != nil {
					// Later documents would land at other indexes than the
					// oracle assumes; stop rather than report a cascade.
					s.fail(err)
					return
				}
				i++
				acked.Store(int64(i))
				s.mu.Lock()
				s.ingest = append(s.ingest, msOf(took))
				s.mu.Unlock()
			}
			busy += time.Since(b0)
			bursting.Store(false)
		}
		if i == len(bodies) && time.Since(start).Seconds() < seconds {
			s.fail(fmt.Errorf("the ingest pool of %d documents ran out before the time was up", len(bodies)))
		}
	}()
	go func() { // reader
		defer wg.Done()
		cl := newClient()
		cl.rec = rec
		defer cl.close()
		for !stop.Load() {
			cycle := s.startCycle(!bursting.Load())
			c0 := time.Now()
			whole := true
			for _, o := range in.cycle {
				if stop.Load() {
					whole = false
					break
				}
				s.attempt()
				lo := int(acked.Load())
				mutating := o.Q.Corpus == "wiki"
				a, err := cl.runQuery(t.front.url, o, mutating)
				hi := int(sent.Load())
				switch {
				case err != nil:
				case mutating:
					err = checkGrowing(o, a, or, lo, hi)
				default:
					err = checkStatic(o, a, digests)
				}
				if err != nil {
					s.fail(err)
					continue
				}
				s.recordQuery(o, a, cycle)
			}
			if whole {
				s.endCycle(cycle, time.Since(c0))
			}
		}
	}()
	wg.Wait()
	if late > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d ingest bursts began late; the writer fell behind its schedule\n", late)
	}
	return int(acked.Load()), busy
}

// checkGrowing verifies an answer over the corpus being ingested into: it
// must be the from-scratch answer over the base plus the first k pool
// documents, for some k between the ingests acknowledged before the query
// was sent and those sent by the time its answer was read.
func checkGrowing(o op, a answer, or *oracle, lo, hi int) error {
	cum, final := or.cum[o.Q.ID], or.final[o.Q.ID]
	n := len(a.Tuples)
	ok := false
	for k := lo; k <= hi && k < len(cum); k++ {
		if cum[k] == n {
			ok = true
			break
		}
	}
	if !ok {
		return fmt.Errorf("%s: %d tuples match no corpus state between %d and %d ingests (oracle: %d..%d)",
			o.Q.ID, n, lo, hi, cum[lo], cum[min(hi, len(cum)-1)])
	}
	if d := sameTuples(a.Tuples, final[:n]); d != "" {
		return fmt.Errorf("%s: %s", o.Q.ID, d)
	}
	return nil
}
