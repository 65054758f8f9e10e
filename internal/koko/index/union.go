package index

import (
	"cmp"
	"slices"
)

// Union is the lazy union of one hierarchy's matched node lists — what a
// path matching several merged nodes (`//verb`, `a//"x"`) looks up. Nothing
// is merged up front: ListCursor walks a Union with a sid-keyed min-heap of
// per-list sub-cursors, stitching the current sentence's runs on demand, and
// its seeks move only the sub-cursors behind the target, so blocks between
// surviving sentences are skipped by their directory bounds without decoding.
// Postings are (sid, tid)-sorted and equal postings collapse. Every element
// must be non-empty.
type Union []PostingList

// Len sums the node lists' lengths. One hierarchy's nodes partition its
// tokens, so for a hierarchy union this is the exact posting count.
func (u Union) Len() int {
	n := 0
	for _, l := range u {
		n += l.Len()
	}
	return n
}

// NumBlocks, BlockBounds and Block present the union to block-wise consumers
// as one block that materializes on every call. The engine never uses them:
// ListCursor and Materialize walk a Union through its cursor.
func (u Union) NumBlocks() int {
	if len(u) == 0 {
		return 0
	}
	return 1
}

func (u Union) BlockBounds(int) (int32, int32) {
	ps := u.Block(0)
	return ps[0].Sid, ps[len(ps)-1].Sid
}

func (u Union) Block(int) []Posting { return Materialize(u) }

// resetUnion points the cursor at the first run of u. The sub-cursor and
// heap slices (and the sub-cursors' spill buffers) are kept across Resets.
func (c *ListCursor) resetUnion(u Union) {
	c.l, c.union, c.valid = u, true, false
	if cap(c.subs) < len(u) {
		c.subs = make([]ListCursor, len(u))
		c.heap = make([]*ListCursor, 0, len(u))
	}
	c.subs = c.subs[:len(u)]
	c.heap = c.heap[:0]
	for i, l := range u {
		s := &c.subs[i]
		s.Reset(l)
		if s.valid {
			c.heap = append(c.heap, s)
		}
	}
	for i := len(c.heap)/2 - 1; i >= 0; i-- {
		c.siftDown(i)
	}
	c.settle()
}

// settle positions the union on the heap's minimum sid. The run is stitched
// lazily by Run, so sid-only walks (sid sets, seeks) never copy postings.
func (c *ListCursor) settle() {
	c.run = nil
	c.valid = len(c.heap) > 0
	if c.valid {
		c.sid = c.heap[0].sid
	}
}

// unionNext advances only the sub-cursors positioned on the current sid.
func (c *ListCursor) unionNext() {
	for len(c.heap) > 0 && c.heap[0].sid == c.sid {
		c.heap[0].NextRun()
		c.fixTop()
	}
	c.settle()
}

// unionSeek seeks only the sub-cursors behind the target; each skips its
// own undecoded blocks through its block directory.
func (c *ListCursor) unionSeek(target int32) {
	for len(c.heap) > 0 && c.heap[0].sid < target {
		c.heap[0].SeekSid(target)
		c.fixTop()
	}
	c.settle()
}

// fixTop restores the heap after its top sub-cursor moved, dropping it when
// exhausted.
func (c *ListCursor) fixTop() {
	if !c.heap[0].valid {
		n := len(c.heap) - 1
		c.heap[0] = c.heap[n]
		c.heap = c.heap[:n]
	}
	c.siftDown(0)
}

func (c *ListCursor) siftDown(i int) {
	h := c.heap
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if m+1 < len(h) && h[m+1].sid < h[m].sid {
			m++
		}
		if h[i].sid <= h[m].sid {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// stitch builds the current run. When one node list holds the sentence its
// run is returned as is; otherwise the sub-runs at the sid are gathered into
// the spill buffer, put in tid order, and equal postings (same sid and tid:
// the same token) collapse.
func (c *ListCursor) stitch() {
	if !c.atSid(1) && !c.atSid(2) {
		c.run = c.heap[0].Run()
		return
	}
	c.spill = c.gather(c.spill[:0], 0)
	sortByTid(c.spill)
	c.spill = slices.Compact(c.spill)
	c.run = c.spill
}

// sortByTid orders one sentence's postings by tid. A stitched run is a few
// tokens, where an inlined insertion sort beats the general sort's
// comparator calls; a long sentence still sorts in O(n log n).
func sortByTid(ps []Posting) {
	if len(ps) > 32 {
		slices.SortFunc(ps, func(a, b Posting) int { return cmp.Compare(a.Tid, b.Tid) })
		return
	}
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].Tid < ps[j-1].Tid; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

// atSid reports whether heap slot i holds a sub-cursor on the current sid.
func (c *ListCursor) atSid(i int) bool { return i < len(c.heap) && c.heap[i].sid == c.sid }

// gather appends the runs of every sub-cursor on the current sid, walking
// only the heap's subtree of such cursors (a larger sid bounds its subtree).
func (c *ListCursor) gather(dst []Posting, i int) []Posting {
	if !c.atSid(i) {
		return dst
	}
	dst = append(dst, c.heap[i].Run()...)
	dst = c.gather(dst, 2*i+1)
	return c.gather(dst, 2*i+2)
}
