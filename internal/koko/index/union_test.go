package index

import (
	"math/rand"
	"slices"
	"testing"
)

// naiveUnion is the reference implementation: concat, sort, dedup by value.
func naiveUnion(lists ...[]Posting) []Posting {
	var all []Posting
	for _, l := range lists {
		all = append(all, l...)
	}
	SortPostings(all)
	var out []Posting
	for i, p := range all {
		if i == 0 || p != all[i-1] {
			out = append(out, p)
		}
	}
	return out
}

// choppedList is a multi-block PostingList over a sorted slice cut at
// arbitrary offsets, so one sentence's run may cross block boundaries (the
// cursor's spill path), as in the block store.
type choppedList [][]Posting

func (l choppedList) Len() int {
	n := 0
	for _, b := range l {
		n += len(b)
	}
	return n
}

func (l choppedList) NumBlocks() int { return len(l) }

func (l choppedList) BlockBounds(i int) (int32, int32) { return l[i][0].Sid, l[i][len(l[i])-1].Sid }

func (l choppedList) Block(i int) []Posting { return l[i] }

// byteStream draws small numbers from test bytes; an exhausted stream
// yields zeros.
type byteStream []byte

func (s *byteStream) next(n int) int {
	if len(*s) == 0 {
		return 0
	}
	v := int((*s)[0]) % n
	*s = (*s)[1:]
	return v
}

// unionFromBytes builds up to six sorted node lists — mostly disjoint, as one
// hierarchy's are, with the odd posting shared by two lists to exercise the
// collapse of equal postings — and chops each into blocks. It returns the
// Union (empty lists dropped) and the lists for the reference.
func unionFromBytes(s *byteStream) (Union, [][]Posting) {
	k := 1 + s.next(6)
	lists := make([][]Posting, k)
	seen := map[[3]int32]bool{}
	add := func(li int, p Posting) {
		if key := [3]int32{int32(li), p.Sid, p.Tid}; !seen[key] {
			seen[key] = true
			lists[li] = append(lists[li], p)
		}
	}
	for n := s.next(64); n > 0; n-- {
		sid, tid := int32(s.next(8)), int32(s.next(12))
		p := Posting{Sid: sid, Tid: tid, U: tid / 2, V: tid/2 + tid%3, D: (sid + tid) % 5}
		owner := s.next(k)
		add(owner, p)
		if s.next(8) == 0 {
			add((owner+1)%k, p)
		}
	}
	var u Union
	for _, l := range lists {
		if len(l) == 0 {
			continue
		}
		SortPostings(l)
		var blocks choppedList
		start := 0
		for i := 1; i < len(l); i++ {
			if s.next(3) == 0 {
				blocks = append(blocks, l[start:i])
				start = i
			}
		}
		u = append(u, append(blocks, l[start:]))
	}
	return u, lists
}

// checkUnionCursor drives a cursor over a Union built from data through a
// data-chosen sequence of NextRun, SeekSid and Reset (onto the union, or onto
// a plain list in between, which the cursor's kept union state must survive),
// checking every position against a naive walk of the sorted reference. It
// also checks Materialize(Union) against naiveUnion.
func checkUnionCursor(t *testing.T, data []byte) {
	t.Helper()
	s := byteStream(data)
	u, lists := unionFromBytes(&s)
	want := naiveUnion(lists...)
	if got := Materialize(u); !slices.Equal(got, want) {
		t.Fatalf("Materialize(Union) = %v, want %v (data %x)", got, want, data)
	}
	var c ListCursor
	c.Reset(u)
	i := 0 // start of the reference's current run
	runEnd := func() int {
		j := i
		for j < len(want) && want[j].Sid == want[i].Sid {
			j++
		}
		return j
	}
	for step := 0; ; step++ {
		if valid := i < len(want); c.Valid() != valid {
			t.Fatalf("step %d: Valid = %v, want %v (data %x)", step, c.Valid(), valid, data)
		}
		if c.Valid() {
			if c.Sid() != want[i].Sid || !slices.Equal(c.Run(), want[i:runEnd()]) {
				t.Fatalf("step %d: run sid %d %v, want sid %d %v (data %x)",
					step, c.Sid(), c.Run(), want[i].Sid, want[i:runEnd()], data)
			}
		}
		if len(s) == 0 {
			return
		}
		switch s.next(4) {
		case 0:
			if i < len(want) {
				i = runEnd()
			}
			c.NextRun()
		case 1:
			target := int32(s.next(10))
			for i < len(want) && want[i].Sid < target {
				i++
			}
			c.SeekSid(target)
		case 2:
			i = 0
			c.Reset(u)
		case 3:
			i = 0
			c.Reset(SlicePostings(want))
		}
	}
}

// TestUnionCursorQuick: the union cursor walks exactly the naive sorted union
// under random NextRun/SeekSid/Reset sequences, on random multi-block lists.
func TestUnionCursorQuick(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for iter := 0; iter < 2000; iter++ {
		data := make([]byte, r.Intn(300))
		r.Read(data)
		checkUnionCursor(t, data)
	}

	// The empty union: never valid, materializes to nothing.
	var c ListCursor
	c.Reset(Union{})
	if c.Valid() || len(Materialize(Union{})) != 0 {
		t.Fatal("empty union is not empty")
	}
	// A one-element union over a one-posting list.
	p := Posting{Sid: 3, Tid: 1}
	one := Union{SlicePostings{p}}
	c.Reset(one)
	if !c.Valid() || c.Sid() != 3 || !slices.Equal(c.Run(), []Posting{p}) {
		t.Fatalf("one-element union: valid=%v sid=%d run=%v", c.Valid(), c.Sid(), c.Run())
	}
	if c.SeekSid(4); c.Valid() {
		t.Fatal("one-element union valid after seeking past its only sentence")
	}
	if got := Materialize(one); !slices.Equal(got, []Posting{p}) {
		t.Fatalf("Materialize(one-element union) = %v", got)
	}
}

// FuzzUnionCursor is TestUnionCursorQuick's property driven by fuzz bytes.
func FuzzUnionCursor(f *testing.F) {
	f.Fuzz(checkUnionCursor)
}
