package index

import "sort"

// Posting is the paper's quintuple (x, y, u-v, d): sentence id, token id,
// subtree interval, and depth.
type Posting struct {
	Sid int32
	Tid int32
	U   int32
	V   int32
	D   int32
}

// Less orders postings by (Sid, Tid).
func (p Posting) Less(q Posting) bool {
	if p.Sid != q.Sid {
		return p.Sid < q.Sid
	}
	return p.Tid < q.Tid
}

// IsAncestorOf reports the paper's interval test: p is a (strict) ancestor
// of q in the same sentence if p.u <= q.u, p.v >= q.v, and p.d < q.d.
func (p Posting) IsAncestorOf(q Posting) bool {
	return p.Sid == q.Sid && p.U <= q.U && p.V >= q.V && p.D < q.D && p.Tid != q.Tid
}

// IsParentOf reports the paper's parent test: ancestor with d_c = d_p + 1.
func (p Posting) IsParentOf(q Posting) bool {
	return p.Sid == q.Sid && p.U <= q.U && p.V >= q.V && p.D+1 == q.D
}

// SortPostings sorts a posting list by (sid, tid).
func SortPostings(ps []Posting) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Less(ps[j]) })
}

// SidsOf returns the sorted distinct sentence ids of a posting list. The
// input must be (sid,tid)-sorted — true of every index posting list after
// Finish and of every join result — so a single linear emit-distinct pass
// suffices; no re-sort, no second dedup.
func SidsOf(ps []Posting) []int32 {
	var out []int32
	for _, p := range ps {
		if len(out) == 0 || out[len(out)-1] != p.Sid {
			out = append(out, p.Sid)
		}
	}
	return out
}

// IntersectSids intersects two sorted sid lists. When the lists are badly
// skewed it walks the smaller list and gallops (exponential probe + binary
// search) through the larger one; otherwise it is a plain linear merge.
func IntersectSids(a, b []int32) []int32 {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return nil
	}
	var out []int32
	if len(b) >= 16*len(a) {
		j := 0
		for _, x := range a {
			j = SeekSidIn(b, j, x)
			if j >= len(b) {
				break
			}
			if b[j] == x {
				out = append(out, x)
				j++
			}
		}
		return out
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// SeekSidIn returns the smallest index i >= from with s[i] >= sid, by
// galloping forward then binary searching the overshot range.
func SeekSidIn(s []int32, from int, sid int32) int {
	if from >= len(s) || s[from] >= sid {
		return from
	}
	step := 1
	lo, hi := from, from+1
	for hi < len(s) && s[hi] < sid {
		lo = hi
		step *= 2
		hi += step
	}
	if hi > len(s) {
		hi = len(s)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < sid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
