package store

import "bytes"

// BTree is an in-memory B+tree over []byte keys with []byte values. Keys are
// unique; Insert overwrites. Leaves are linked for fast range scans. The
// fanout is fixed; with order 64 a tree of a few million keys is 3–4 levels
// deep, matching the behaviour of the database B-trees the paper relies on.
type BTree struct {
	root   node
	size   int
	height int
}

const btreeOrder = 64 // max keys per node

type node interface {
	isLeaf() bool
}

type leafNode struct {
	keys [][]byte
	vals [][]byte
	next *leafNode
}

type innerNode struct {
	// keys[i] is the smallest key reachable under children[i+1].
	keys     [][]byte
	children []node
}

func (*leafNode) isLeaf() bool  { return true }
func (*innerNode) isLeaf() bool { return false }

// NewBTree returns an empty tree.
func NewBTree() *BTree {
	return &BTree{root: &leafNode{}, height: 1}
}

// Len returns the number of keys.
func (t *BTree) Len() int { return t.size }

// Get returns the value for key and whether it exists.
func (t *BTree) Get(key []byte) ([]byte, bool) {
	n := t.root
	for !n.isLeaf() {
		in := n.(*innerNode)
		n = in.children[childIndex(in.keys, key)]
	}
	lf := n.(*leafNode)
	i := lowerBound(lf.keys, key)
	if i < len(lf.keys) && bytes.Equal(lf.keys[i], key) {
		return lf.vals[i], true
	}
	return nil, false
}

// Insert sets key to val, overwriting any existing value. The key and value
// slices are retained; callers must not mutate them afterwards.
func (t *BTree) Insert(key, val []byte) {
	newKey, newChild := t.insert(t.root, key, val)
	if newChild != nil {
		t.root = &innerNode{
			keys:     [][]byte{newKey},
			children: []node{t.root, newChild},
		}
		t.height++
	}
}

// insert recursively inserts and returns a (separatorKey, rightSibling) pair
// when the child split, or (nil, nil).
func (t *BTree) insert(n node, key, val []byte) ([]byte, node) {
	if n.isLeaf() {
		lf := n.(*leafNode)
		i := lowerBound(lf.keys, key)
		if i < len(lf.keys) && bytes.Equal(lf.keys[i], key) {
			lf.vals[i] = val
			return nil, nil
		}
		lf.keys = insertAt(lf.keys, i, key)
		lf.vals = insertAt(lf.vals, i, val)
		t.size++
		if len(lf.keys) <= btreeOrder {
			return nil, nil
		}
		mid := len(lf.keys) / 2
		right := &leafNode{
			keys: append([][]byte(nil), lf.keys[mid:]...),
			vals: append([][]byte(nil), lf.vals[mid:]...),
			next: lf.next,
		}
		lf.keys = lf.keys[:mid]
		lf.vals = lf.vals[:mid]
		lf.next = right
		return right.keys[0], right
	}
	in := n.(*innerNode)
	ci := childIndex(in.keys, key)
	sepKey, sibling := t.insert(in.children[ci], key, val)
	if sibling == nil {
		return nil, nil
	}
	in.keys = insertAt(in.keys, ci, sepKey)
	in.children = insertAt(in.children, ci+1, sibling)
	if len(in.keys) <= btreeOrder {
		return nil, nil
	}
	mid := len(in.keys) / 2
	up := in.keys[mid]
	right := &innerNode{
		keys:     append([][]byte(nil), in.keys[mid+1:]...),
		children: append([]node(nil), in.children[mid+1:]...),
	}
	in.keys = in.keys[:mid]
	in.children = in.children[:mid+1]
	return up, right
}

// Delete removes key and reports whether it was present. Underflow is not
// rebalanced (the workloads here are build-once / read-many, like the
// paper's), but deleted keys become invisible immediately.
func (t *BTree) Delete(key []byte) bool {
	n := t.root
	for !n.isLeaf() {
		in := n.(*innerNode)
		n = in.children[childIndex(in.keys, key)]
	}
	lf := n.(*leafNode)
	i := lowerBound(lf.keys, key)
	if i < len(lf.keys) && bytes.Equal(lf.keys[i], key) {
		lf.keys = append(lf.keys[:i], lf.keys[i+1:]...)
		lf.vals = append(lf.vals[:i], lf.vals[i+1:]...)
		t.size--
		return true
	}
	return false
}

// Iter is a forward iterator positioned at a key/value pair.
type Iter struct {
	leaf *leafNode
	idx  int
}

// Seek returns an iterator positioned at the first key >= key.
func (t *BTree) Seek(key []byte) Iter {
	n := t.root
	for !n.isLeaf() {
		in := n.(*innerNode)
		n = in.children[childIndex(in.keys, key)]
	}
	lf := n.(*leafNode)
	i := lowerBound(lf.keys, key)
	it := Iter{leaf: lf, idx: i}
	it.skipExhausted()
	return it
}

// Min returns an iterator at the smallest key.
func (t *BTree) Min() Iter { return t.Seek(nil) }

// Valid reports whether the iterator is positioned at a pair.
func (it *Iter) Valid() bool { return it.leaf != nil && it.idx < len(it.leaf.keys) }

// Key returns the current key. Valid() must be true.
func (it *Iter) Key() []byte { return it.leaf.keys[it.idx] }

// Value returns the current value. Valid() must be true.
func (it *Iter) Value() []byte { return it.leaf.vals[it.idx] }

// Next advances the iterator.
func (it *Iter) Next() {
	it.idx++
	it.skipExhausted()
}

func (it *Iter) skipExhausted() {
	for it.leaf != nil && it.idx >= len(it.leaf.keys) {
		it.leaf = it.leaf.next
		it.idx = 0
	}
}

// ScanPrefix calls fn for every key with the given prefix, in order. fn may
// return false to stop early.
func (t *BTree) ScanPrefix(prefix []byte, fn func(key, val []byte) bool) {
	for it := t.Seek(prefix); it.Valid(); it.Next() {
		if !bytes.HasPrefix(it.Key(), prefix) {
			return
		}
		if !fn(it.Key(), it.Value()) {
			return
		}
	}
}

// childIndex returns the index of the child to descend into for key.
func childIndex(keys [][]byte, key []byte) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(keys[mid], key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lowerBound returns the first index whose key >= key.
func lowerBound(keys [][]byte, key []byte) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func insertAt[T any](s []T, i int, v T) []T {
	s = append(s, v)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
