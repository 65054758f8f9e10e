package index

import (
	"cmp"
	"slices"
	"sort"
)

// Hierarchy is a hierarchy index (paper §3.2): the dataguide-style merge of
// all dependency trees over one label alphabet (parse labels for the PL
// index, POS tags for the POS index). Node 0 is a dummy super-root sitting
// above every dependency tree's root, so a single structure covers both the
// PL case (every tree root has label "root") and the POS case (tree roots
// have varying tags).
type Hierarchy struct {
	Labels   []string // node id -> label ("" for the super-root)
	Depths   []int32  // node id -> depth (super-root = -1, tree roots = 0)
	Parents  []int32  // node id -> parent node id (-1 for super-root)
	Children []map[string]int32
	Postings [][]Posting // node id -> posting list

	// NodeSource, when set, supplies node posting lists lazily (the mmap
	// block store) and Postings holds only nils. Mutating operations
	// (addSentence, SortTail) are never called on a source-backed
	// hierarchy — block-backed indexes are immutable.
	NodeSource func(node int32) PostingList

	// TotalTokens counts the tokens merged in, for the compression stat.
	TotalTokens int
}

// NewHierarchy returns an empty hierarchy with just the super-root.
func NewHierarchy() *Hierarchy {
	return &Hierarchy{
		Labels:   []string{""},
		Depths:   []int32{-1},
		Parents:  []int32{-1},
		Children: []map[string]int32{{}},
		Postings: [][]Posting{nil},
	}
}

// child returns the child of node with the given label, creating it if
// needed.
func (h *Hierarchy) child(node int32, label string) int32 {
	if id, ok := h.Children[node][label]; ok {
		return id
	}
	id := int32(len(h.Labels))
	h.Labels = append(h.Labels, label)
	h.Depths = append(h.Depths, h.Depths[node]+1)
	h.Parents = append(h.Parents, node)
	h.Children = append(h.Children, map[string]int32{})
	h.Postings = append(h.Postings, nil)
	h.Children[node][label] = id
	return id
}

// addSentence merges one sentence's dependency tree into the hierarchy.
// order is the sentence's breadth-first token order (Sent.bfsOrder), so
// parents merge before children; labels is the label alphabet (parse labels
// or POS tags) per token. It appends the hierarchy node id assigned to each
// token, in token order, to nodes (the plid/posid columns of the W table)
// and returns the extended column.
func (h *Hierarchy) addSentence(s *Sent, order []int32, labels []uint32, nodes []int32) []int32 {
	base := len(nodes)
	nodes = slices.Grow(nodes, s.Len())[:base+s.Len()]
	nodeOf := nodes[base:]
	clear(nodeOf) // a token the walk misses keeps the super-root's id
	for _, tid := range order {
		parentNode := int32(0)
		if hd := s.Head[tid]; hd >= 0 {
			parentNode = nodeOf[hd]
		}
		id := h.child(parentNode, s.Dict.Str(labels[tid]))
		nodeOf[tid] = id
		h.Postings[id] = append(h.Postings[id], Posting{
			Sid: int32(s.ID), Tid: tid, U: s.SubL[tid], V: s.SubR[tid], D: s.Depth[tid],
		})
	}
	h.TotalTokens += s.Len()
	return nodes
}

// NumNodes returns the number of merged nodes (excluding the super-root).
func (h *Hierarchy) NumNodes() int { return len(h.Labels) - 1 }

// CompressionRatio returns the fraction of dependency-tree nodes eliminated
// by merging (the paper reports >99.7% on its corpora).
func (h *Hierarchy) CompressionRatio() float64 {
	if h.TotalTokens == 0 {
		return 0
	}
	return 1 - float64(h.NumNodes())/float64(h.TotalTokens)
}

// Step is one step of a root-anchored path pattern: an axis (child or
// descendant) and a label ("*" is a wildcard).
type Step struct {
	Desc  bool // true = "//" (descendant axis), false = "/" (child axis)
	Label string
}

// Path is a root-anchored path pattern.
type Path []Step

// NodeList returns one node's posting list, lazy when source-backed.
func (h *Hierarchy) NodeList(n int32) PostingList {
	if h.NodeSource != nil {
		return h.NodeSource(n)
	}
	if ps := h.Postings[n]; len(ps) > 0 {
		return SlicePostings(ps)
	}
	return nil
}

// LookupNodes returns the sorted ids of every hierarchy node whose root
// path matches the pattern; DPLI reads their NodeLists. Matching uses a
// memoized traversal: state (node, step) is visited at most once, so the
// cost is bounded by O(nodes × steps) regardless of wildcard structure.
func (h *Hierarchy) LookupNodes(p Path) []int32 {
	type state struct {
		node int32
		step int
	}
	seen := map[state]bool{}
	var matched []int32
	var visit func(node int32, step int)
	visit = func(node int32, step int) {
		st := state{node, step}
		if seen[st] {
			return
		}
		seen[st] = true
		if step == len(p) {
			matched = append(matched, node)
			return
		}
		s := p[step]
		for label, ch := range h.Children[node] {
			if s.Label == "*" || label == s.Label {
				visit(ch, step+1)
			}
			if s.Desc {
				visit(ch, step)
			}
		}
	}
	visit(0, 0)
	sort.Slice(matched, func(i, j int) bool { return matched[i] < matched[j] })
	w := 0
	for i, m := range matched {
		if i == 0 || m != matched[w-1] {
			matched[w] = m
			w++
		}
	}
	return matched[:w]
}

// SortAllPostings sorts every node's posting list; call once after building.
func (h *Hierarchy) SortAllPostings() {
	for i := range h.Postings {
		SortPostings(h.Postings[i])
	}
}

// SortTail restores (sid, tid) order on node's posting list after appending
// sentence sid: everything before the sentence's entries is already sorted
// (smaller sids), so only the trailing run with that sid needs sorting.
// This is the incremental counterpart of SortAllPostings for the delta
// index, where sentences arrive one at a time in sid order.
func (h *Hierarchy) SortTail(node int32, sid int32) {
	ps := h.Postings[node]
	lo := len(ps)
	for lo > 0 && ps[lo-1].Sid == sid {
		lo--
	}
	if tail := ps[lo:]; !slices.IsSortedFunc(tail, cmpTid) {
		slices.SortFunc(tail, cmpTid)
	}
}

func cmpTid(a, b Posting) int { return cmp.Compare(a.Tid, b.Tid) }

// Clone returns an immutable read view of the hierarchy. The per-node
// children maps are deep-copied (merging a new sentence mutates them in
// place) and the outer postings slice is fresh (an append rewrites the
// node's slice header); node postings and the label/depth/parent columns
// are shared — further appends only ever add entries beyond the clone's
// recorded lengths.
func (h *Hierarchy) Clone() *Hierarchy {
	out := &Hierarchy{
		Labels:      h.Labels,
		Depths:      h.Depths,
		Parents:     h.Parents,
		Children:    make([]map[string]int32, len(h.Children)),
		Postings:    append([][]Posting(nil), h.Postings...),
		NodeSource:  h.NodeSource,
		TotalTokens: h.TotalTokens,
	}
	for i, m := range h.Children {
		cm := make(map[string]int32, len(m))
		for label, id := range m {
			cm[label] = id
		}
		out.Children[i] = cm
	}
	return out
}
