package engine

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/koko/index"
)

// TestEachInCrossesBlocks: restricting a block-backed list to a sentence set
// yields exactly the list's postings in those sentences, also for sentences
// whose run spans two blocks.
func TestEachInCrossesBlocks(t *testing.T) {
	r := openBlockStore(t, blockCrossingCorpus())
	l := r.NewIndex().WordList("coffee")
	if l.NumBlocks() < 2 {
		t.Fatalf("coffee fills %d block, want several", l.NumBlocks())
	}
	all := materialize(l)
	sids := index.SidsOf(all)
	for _, within := range [][]int32{nil, sids, everyOther(sids), sids[len(sids)/2:], {sids[len(sids)-1]}} {
		var want []index.Posting
		for _, p := range all {
			if within == nil || slices.Contains(within, p.Sid) {
				want = append(want, p)
			}
		}
		var got []index.Posting
		eachIn(l, within, func(ps []index.Posting) { got = append(got, ps...) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("within %v: %d postings, want %d", within, len(got), len(want))
		}
		if vc := countsOfList(l, within); !reflect.DeepEqual(vc, countsOfPostings(want)) {
			t.Fatalf("within %v: counts %v, want %v", within, vc, countsOfPostings(want))
		}
	}
}

func everyOther(s []int32) []int32 {
	var out []int32
	for i := 1; i < len(s); i += 2 {
		out = append(out, s[i])
	}
	return out
}
