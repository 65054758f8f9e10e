package index

import (
	"math/rand"
	"sort"
	"testing"
)

// genSortedPostings builds a random sorted, deduplicated posting list. The
// quintuple attributes are a function of (sid, tid), as in a real index
// (one token has exactly one geometry).
func genSortedPostings(r *rand.Rand, n int) []Posting {
	seen := map[[2]int32]bool{}
	var out []Posting
	for i := 0; i < n; i++ {
		sid, tid := int32(r.Intn(6)), int32(r.Intn(12))
		key := [2]int32{sid, tid}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, Posting{
			Sid: sid, Tid: tid,
			U: tid / 2, V: tid/2 + tid%3, D: (sid + tid) % 5,
		})
	}
	SortPostings(out)
	return out
}

// TestAncestorArithmeticComplete: on ARBITRARY trees the quintuple
// interval+depth tests are complete (true ancestors always pass) but may
// over-approximate — the engine's validation step removes the false
// positives (§4.2.2 Discussion). This property test pins the completeness
// half.
func TestAncestorArithmeticComplete(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		// Random (possibly non-projective) tree; parents point left.
		n := 2 + r.Intn(12)
		parent := make([]int, n)
		parent[0] = -1
		for i := 1; i < n; i++ {
			parent[i] = r.Intn(i)
		}
		depth := make([]int, n)
		for i := 1; i < n; i++ {
			depth[i] = depth[parent[i]] + 1
		}
		subL := make([]int, n)
		subR := make([]int, n)
		for i := range subL {
			subL[i], subR[i] = i, i
		}
		for i := n - 1; i >= 1; i-- {
			p := parent[i]
			if subL[i] < subL[p] {
				subL[p] = subL[i]
			}
			if subR[i] > subR[p] {
				subR[p] = subR[i]
			}
		}
		post := func(i int) Posting {
			return Posting{Sid: 0, Tid: int32(i), U: int32(subL[i]), V: int32(subR[i]), D: int32(depth[i])}
		}
		isAncestor := func(a, d int) bool {
			for x := parent[d]; x != -1; x = parent[x] {
				if x == a {
					return true
				}
			}
			return false
		}
		for a := 0; a < n; a++ {
			for d := 0; d < n; d++ {
				if a == d {
					continue
				}
				if isAncestor(a, d) && !post(a).IsAncestorOf(post(d)) {
					t.Fatalf("iter %d: true ancestor (%d,%d) rejected (parents %v)", iter, a, d, parent)
				}
				if parent[d] == a && !post(a).IsParentOf(post(d)) {
					t.Fatalf("iter %d: true parent (%d,%d) rejected (parents %v)", iter, a, d, parent)
				}
			}
		}
	}
}

// TestAncestorArithmeticExactOnParses: on the trees the actual parser
// produces (projective, as the paper assumes), the arithmetic is EXACT —
// this is what lets the paper use it as a parent/ancestor test.
func TestAncestorArithmeticExactOnParses(t *testing.T) {
	c := NewCorpus(nil, []string{
		"Anna ate some delicious cheesecake that she bought at a grocery store.",
		"I ate a chocolate ice cream, which was delicious, and also ate a pie.",
		"Baking chocolate is a type of chocolate that is prepared for baking.",
		"The new cafe serves great espresso and employs three baristas.",
		"Cyd Charisse had been called Sid for years.",
	})
	for sid := range c.Sentences {
		s := &c.Sentences[sid]
		post := func(i int) Posting {
			tok := &s.Tokens[i]
			return Posting{Sid: int32(sid), Tid: int32(i), U: int32(tok.SubL), V: int32(tok.SubR), D: int32(tok.Depth)}
		}
		for a := range s.Tokens {
			for d := range s.Tokens {
				if a == d {
					continue
				}
				want := s.IsAncestor(a, d)
				if got := post(a).IsAncestorOf(post(d)); got != want {
					t.Fatalf("sid %d: IsAncestorOf(%d,%d) = %v, want %v\n%s", sid, a, d, got, want, s.TreeString())
				}
				wantP := s.Tokens[d].Head == a
				if got := post(a).IsParentOf(post(d)); got != wantP {
					t.Fatalf("sid %d: IsParentOf(%d,%d) = %v, want %v\n%s", sid, a, d, got, wantP, s.TreeString())
				}
			}
		}
	}
}

// TestSortPostingsStableOrder: SortPostings yields (sid, tid) order.
func TestSortPostingsStableOrder(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ps := genSortedPostings(r, 50)
	r.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	SortPostings(ps)
	ok := sort.SliceIsSorted(ps, func(i, j int) bool { return ps[i].Less(ps[j]) })
	if !ok {
		t.Error("not sorted")
	}
}
