package index

import "fmt"

// PostingList is a posting list that may be decoded lazily, block by block.
// The heap-resident implementation is SlicePostings (one block); the mmap
// block store yields lists whose blocks decode on first touch through a
// budgeted cache. Blocks partition the list in (sid, tid) order and
// BlockBounds exposes each block's sid range so consumers can skip whole
// blocks without decoding them.
type PostingList interface {
	// Len is the total posting count across all blocks.
	Len() int
	// NumBlocks is the block count (0 for an empty list).
	NumBlocks() int
	// BlockBounds returns block i's first and last sentence id.
	BlockBounds(i int) (minSid, maxSid int32)
	// Block returns block i's postings, decoding if necessary. The returned
	// slice is shared (possibly cached) and must not be mutated. Corrupt
	// on-disk blocks panic with *StoreError; the engine converts that to a
	// query error at its entry points.
	Block(i int) []Posting
}

// SlicePostings adapts a heap-resident, (sid,tid)-sorted slice to
// PostingList as a single block.
type SlicePostings []Posting

func (s SlicePostings) Len() int { return len(s) }

func (s SlicePostings) NumBlocks() int {
	if len(s) == 0 {
		return 0
	}
	return 1
}

func (s SlicePostings) BlockBounds(int) (int32, int32) {
	return s[0].Sid, s[len(s)-1].Sid
}

func (s SlicePostings) Block(int) []Posting { return s }

// ListLen reports the posting count of a possibly-nil list.
func ListLen(l PostingList) int {
	if l == nil {
		return 0
	}
	return l.Len()
}

// ListCursor walks a PostingList one sentence run at a time: Run returns the
// contiguous postings of the current sid, and SeekSid gallops forward using
// per-block min/max bounds so blocks wholly below the target are skipped
// without being decoded. This is how the engine's merge joins consume lazy
// lists: only the touched blocks ever materialize, and a run spanning a
// block boundary is stitched into a small reusable scratch buffer.
type ListCursor struct {
	l     PostingList
	nb    int
	bi    int       // current block index
	blk   []Posting // decoded current block
	off   int       // start of the current run within blk
	end   int       // end of the current run within blk
	run   []Posting // current run (a blk subslice, or spill)
	spill []Posting // scratch for runs spanning blocks
	sid   int32
	valid bool
}

// Reset points the cursor at the first run of l (which may be nil or empty).
func (c *ListCursor) Reset(l PostingList) {
	c.l = l
	c.nb = 0
	if l != nil {
		c.nb = l.NumBlocks()
	}
	c.bi = 0
	c.blk = nil
	c.off = 0
	c.valid = false
	if c.nb == 0 {
		return
	}
	c.blk = l.Block(0)
	if len(c.blk) == 0 {
		return
	}
	c.valid = true
	c.loadRun()
}

// Valid reports whether the cursor is positioned on a run.
func (c *ListCursor) Valid() bool { return c.valid }

// Sid is the current run's sentence id.
func (c *ListCursor) Sid() int32 { return c.sid }

// Run returns the current run: every posting of the current sid, in tid
// order. The slice is only valid until the cursor advances.
func (c *ListCursor) Run() []Posting { return c.run }

// loadRun delimits the run starting at (bi, off), pulling continuation
// prefixes from following blocks when the run crosses block boundaries.
func (c *ListCursor) loadRun() {
	c.sid = c.blk[c.off].Sid
	c.end = runEnd(c.blk, c.off, c.sid)
	if c.end < len(c.blk) || c.bi+1 >= c.nb {
		c.run = c.blk[c.off:c.end]
		return
	}
	// The run reaches the end of the block; it continues iff the next
	// block's minimum sid matches.
	if min, _ := c.l.BlockBounds(c.bi + 1); min != c.sid {
		c.run = c.blk[c.off:c.end]
		return
	}
	c.spill = append(c.spill[:0], c.blk[c.off:c.end]...)
	for c.bi+1 < c.nb {
		min, _ := c.l.BlockBounds(c.bi + 1)
		if min != c.sid {
			break
		}
		c.bi++
		c.blk = c.l.Block(c.bi)
		c.off = 0
		c.end = runEnd(c.blk, 0, c.sid)
		c.spill = append(c.spill, c.blk[:c.end]...)
		if c.end < len(c.blk) {
			break
		}
	}
	c.run = c.spill
}

// NextRun advances to the next sentence's run.
func (c *ListCursor) NextRun() {
	if !c.valid {
		return
	}
	c.off = c.end
	for c.off >= len(c.blk) {
		c.bi++
		if c.bi >= c.nb {
			c.valid = false
			return
		}
		c.blk = c.l.Block(c.bi)
		c.off = 0
	}
	c.loadRun()
}

// SeekSid advances the cursor to the first run with sid >= target. Blocks
// whose max sid is below the target are skipped by bound comparison alone.
func (c *ListCursor) SeekSid(target int32) {
	if !c.valid || c.sid >= target {
		return
	}
	if _, max := c.l.BlockBounds(c.bi); max < target {
		// Binary search the block directory for the first block that can
		// contain the target.
		lo, hi := c.bi+1, c.nb
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if _, m := c.l.BlockBounds(mid); m < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo >= c.nb {
			c.valid = false
			return
		}
		c.bi = lo
		c.blk = c.l.Block(lo)
		c.off = 0
	} else {
		c.off = c.end
	}
	c.off = seekSidSlice(c.blk, c.off, target)
	if c.off >= len(c.blk) {
		// The block's max said the target fits, so this only happens when
		// the seek started past it; fall through to the next block.
		c.bi++
		for c.bi < c.nb {
			if _, m := c.l.BlockBounds(c.bi); m >= target {
				break
			}
			c.bi++
		}
		if c.bi >= c.nb {
			c.valid = false
			return
		}
		c.blk = c.l.Block(c.bi)
		c.off = seekSidSlice(c.blk, 0, target)
	}
	c.loadRun()
}

// runEnd returns the end of the run of sid starting at from, galloping then
// binary searching within the block.
func runEnd(ps []Posting, from int, sid int32) int {
	return seekSidSlice(ps, from, sid+1)
}

// seekSidSlice returns the smallest index i >= from with ps[i].Sid >= sid
// (gallop + binary search, as the merge joins use).
func seekSidSlice(ps []Posting, from int, sid int32) int {
	if from >= len(ps) || ps[from].Sid >= sid {
		return from
	}
	step := 1
	lo, hi := from, from+1
	for hi < len(ps) && ps[hi].Sid < sid {
		lo = hi
		step *= 2
		hi += step
	}
	if hi > len(ps) {
		hi = len(ps)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ps[mid].Sid < sid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// HierKind names one of the two hierarchy indices when addressing a
// PostingSource.
type HierKind uint8

const (
	HierPL HierKind = iota
	HierPOS
)

// SourceStats summarizes the shape of an on-disk posting source without
// decoding any posting data.
type SourceStats struct {
	Words         int
	TotalPostings int
}

// PostingSource supplies posting data for an Index whose lists live outside
// the heap (the mmap block store). Word and hierarchy-node lists come back
// lazy. Word keys are pre-lowered.
type PostingSource interface {
	// WordList returns the lazy posting list of a lowercased word, or nil.
	WordList(lowered string) PostingList
	// NodeList returns the lazy posting list of one hierarchy node, or nil.
	NodeList(kind HierKind, node int32) PostingList
	// SourceStats reports index shape from the source's directory alone.
	SourceStats() SourceStats
}

// StoreError reports a damaged on-disk posting store detected during lazy
// decode. Because decode happens inside posting-list access (which has no
// error channel), the block store panics with a *StoreError and the engine
// recovers it into a query error at its entry points.
type StoreError struct {
	Path string
	Err  error
}

func (e *StoreError) Error() string {
	return fmt.Sprintf("store %s: %v", e.Path, e.Err)
}

func (e *StoreError) Unwrap() error { return e.Err }
