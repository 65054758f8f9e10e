package nlp

import (
	"fmt"
	"math"
	"strings"
)

// Universal POS tags (lowercase canonical forms). The KOKO language matches
// tags case-insensitively, so "VERB" in a figure and "verb" in a query both
// normalize to these constants.
const (
	PosNoun  = "noun"
	PosVerb  = "verb"
	PosAdj   = "adj"
	PosAdv   = "adv"
	PosPron  = "pron"
	PosPropn = "propn"
	PosDet   = "det"
	PosAdp   = "adp" // adpositions (prepositions)
	PosConj  = "conj"
	PosNum   = "num"
	PosPrt   = "prt" // particles ("to", "up" in phrasal verbs)
	PosPunct = "punct"
	PosX     = "x" // everything else
)

// Dependency parse labels (lowercase canonical forms). The inventory follows
// the paper's Figure 1 and Example 3.1. Punctuation is canonically "p"
// (Figure 1); NormalizeLabel maps the common alias "punct" onto it.
const (
	LblRoot   = "root"
	LblNsubj  = "nsubj"
	LblDobj   = "dobj"
	LblIobj   = "iobj"
	LblDet    = "det"
	LblNN     = "nn" // noun compound modifier
	LblAmod   = "amod"
	LblAdvmod = "advmod"
	LblPrep   = "prep"
	LblPobj   = "pobj"
	LblP      = "p" // punctuation
	LblCC     = "cc"
	LblConj   = "conj"
	LblRcmod  = "rcmod"
	LblAcomp  = "acomp"
	LblXcomp  = "xcomp"
	LblAux    = "aux"
	LblAttr   = "attr"
	LblNum    = "num"
	LblPoss   = "poss"
	LblNeg    = "neg"
	LblDep    = "dep" // fallback attachment
)

// Entity types used throughout the reproduction. They mirror the types the
// paper's queries mention: Entity (any), Person, GPE/Location, Organization,
// Date, and Other.
const (
	EntPerson   = "Person"
	EntLocation = "Location"
	EntOrg      = "Organization"
	EntDate     = "Date"
	EntOther    = "Other"
)

// NormalizeLabel maps parse-label aliases to canonical form. The paper itself
// is inconsistent ("p" in Figure 1, "punct" in the synthetic benchmark
// description); we accept both everywhere. The lowercase-ASCII fast path
// keeps this allocation-free on the hot lookup paths.
func NormalizeLabel(s string) string {
	if s == "punct" {
		return LblP
	}
	if isLowerASCII(s) {
		return s
	}
	s = strings.ToLower(strings.TrimSpace(s))
	if s == "punct" {
		return LblP
	}
	return s
}

func isLowerASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '!' || c > '~' || (c >= 'A' && c <= 'Z') {
			return false
		}
	}
	return true
}

// NormalizePOS maps POS-tag aliases to canonical form.
func NormalizePOS(s string) string {
	if !isLowerASCII(s) {
		s = strings.ToLower(strings.TrimSpace(s))
	}
	switch s {
	case "nn", "nns":
		return PosNoun
	case "prop", "pnoun":
		return PosPropn
	case "prep", "in":
		return PosAdp
	case ".", ",":
		return PosPunct
	}
	return s
}

// Token is a single token of a sentence together with every annotation layer
// the KOKO engine consumes.
type Token struct {
	ID    int    // token id within the sentence (0-based)
	Text  string // surface form
	Lower string // lowercase surface form
	POS   string // universal POS tag (canonical lowercase)
	Label string // dependency parse label (canonical lowercase)
	Head  int    // token id of the head; -1 for the root token

	// Derived tree geometry, filled in by Sentence.computeDerived. These are
	// exactly the quintuple components the paper's indices store: the first
	// (SubL) and last (SubR) token id of the subtree rooted at this token and
	// the depth of the token in the dependency tree (root has depth 0).
	Depth int
	SubL  int
	SubR  int

	EntityID int // index into Sentence.Entities, or -1
}

// Entity is a typed entity mention: a token span [L,R] (inclusive) within one
// sentence.
type Entity struct {
	Type string
	L, R int
	Text string
}

// Sentence is a parsed sentence: tokens with annotations, the dependency tree
// encoded in Token.Head, and recognized entity spans.
type Sentence struct {
	ID       int
	Tokens   []Token
	Entities []Entity

	children [][]int // adjacency list, built by computeDerived
	rootID   int
}

// Document is a parsed document: an ordered list of sentences. Sentence IDs
// are corpus-global when a Corpus assembles documents, document-local here.
type Document struct {
	ID        int
	Name      string
	Sentences []Sentence
}

// Root returns the id of the root token (-1 if the sentence is empty).
func (s *Sentence) Root() int { return s.rootID }

// Children returns the ids of the dependents of token id, in surface order.
func (s *Sentence) Children(id int) []int {
	if id < 0 || id >= len(s.children) {
		return nil
	}
	return s.children[id]
}

// Text reconstructs a detokenized form of the span [l,r] (inclusive).
// Punctuation attaches to the preceding token without a space. The builder
// is sized exactly up front, so a call allocates once.
func (s *Sentence) Text(l, r int) string {
	if l < 0 {
		l = 0
	}
	if r >= len(s.Tokens) {
		r = len(s.Tokens) - 1
	}
	size := 0
	for i := l; i <= r; i++ {
		size += len(s.Tokens[i].Text)
		if i > l && s.Tokens[i].POS != PosPunct {
			size++
		}
	}
	var b strings.Builder
	b.Grow(size)
	for i := l; i <= r; i++ {
		t := &s.Tokens[i]
		if i > l && t.POS != PosPunct {
			b.WriteByte(' ')
		}
		b.WriteString(t.Text)
	}
	return b.String()
}

// String renders the whole sentence.
func (s *Sentence) String() string {
	if len(s.Tokens) == 0 {
		return ""
	}
	return s.Text(0, len(s.Tokens)-1)
}

// EntityAt returns the entity covering token id, or nil.
func (s *Sentence) EntityAt(id int) *Entity {
	if id < 0 || id >= len(s.Tokens) {
		return nil
	}
	e := s.Tokens[id].EntityID
	if e < 0 {
		return nil
	}
	return &s.Entities[e]
}

// RecomputeDerived rebuilds the derived tree geometry (Depth, SubL, SubR,
// adjacency, root) from the Head assignments. Callers that deserialize or
// mutate heads must invoke it before using the geometry.
func (s *Sentence) RecomputeDerived() { s.computeDerived() }

// computeDerived fills Depth, SubL, SubR, the adjacency list, and rootID from
// the Head assignments through DeriveTree, repairing the heads into one tree.
// It must be called whenever heads change.
func (s *Sentence) computeDerived() {
	n := len(s.Tokens)
	cols := make([]int32, 4*n)
	head, depth, subL, subR := cols[:n], cols[n:2*n], cols[2*n:3*n], cols[3*n:]
	for i := range s.Tokens {
		head[i] = clampHead(s.Tokens[i].Head)
	}
	var ts TreeScratch
	s.rootID = int(ts.DeriveTree(head, depth, subL, subR))
	s.children = make([][]int, n)
	for i := range s.Tokens {
		t := &s.Tokens[i]
		t.Head, t.Depth, t.SubL, t.SubR = int(head[i]), int(depth[i]), int(subL[i]), int(subR[i])
		if t.Head >= 0 {
			s.children[t.Head] = append(s.children[t.Head], i)
		}
	}
}

// clampHead narrows a head to int32; any value out of int32 range is out of
// every sentence's range too, so it becomes -1 (no head).
func clampHead(h int) int32 {
	if h < -1 || h > math.MaxInt32 {
		return -1
	}
	return int32(h)
}

// TreeScratch is DeriveTree's reusable scratch: a decoder that derives many
// sentences allocates it once.
type TreeScratch struct{ first, next, queue []int32 }

// DeriveTree repairs one sentence's heads (a token id per token, -1 for the
// root) in place into a single tree and fills each token's depth and the
// first (subL) and last (subR) token id of its subtree. An out-of-range or
// self head makes a root; a second root is attached to the first; a sentence
// without a root gets token 0 as root; tokens the root cannot reach (cycles)
// are attached to the root at depth 1. It returns the root, -1 when the
// sentence is empty. All four slices have one entry per token.
func (ts *TreeScratch) DeriveTree(head, depth, subL, subR []int32) int32 {
	n := len(head)
	if n == 0 {
		return -1
	}
	root := int32(-1)
	for i, h := range head {
		if h < 0 || int(h) >= n || int(h) == i {
			if root == -1 {
				head[i], root = -1, int32(i)
			} else {
				head[i] = root
			}
		}
	}
	if root == -1 {
		head[0], root = -1, 0
	}
	// Children as linked lists in ascending id order, for a breadth-first
	// walk from the root.
	ts.first = fill(ts.first, n, -1)
	ts.next = fill(ts.next, n, -1)
	for i := n - 1; i >= 0; i-- {
		if h := head[i]; h >= 0 {
			ts.next[i], ts.first[h] = ts.first[h], int32(i)
		}
	}
	for i := range depth {
		depth[i] = -1
	}
	depth[root] = 0
	q := append(ts.queue[:0], root)
	for k := 0; k < len(q); k++ {
		u := q[k]
		for c := ts.first[u]; c >= 0; c = ts.next[c] {
			if depth[c] == -1 {
				depth[c] = depth[u] + 1
				q = append(q, c)
			}
		}
	}
	ts.queue = q
	for i := range head {
		subL[i], subR[i] = int32(i), int32(i)
	}
	for i := range head {
		if depth[i] == -1 { // on a cycle: a leaf under the root
			head[i], depth[i] = root, 1
			subL[root], subR[root] = min(subL[root], int32(i)), max(subR[root], int32(i))
		}
	}
	// The queue holds the reachable tokens by non-decreasing depth, so in
	// reverse every subtree is final before it widens its head's.
	for k := len(q) - 1; k > 0; k-- {
		c := q[k]
		h := head[c]
		subL[h], subR[h] = min(subL[h], subL[c]), max(subR[h], subR[c])
	}
	return root
}

func fill(buf []int32, n int, v int32) []int32 {
	if cap(buf) < n {
		buf = make([]int32, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = v
	}
	return buf
}

// IsAncestor reports whether token a is a (strict) ancestor of token d in the
// dependency tree.
func (s *Sentence) IsAncestor(a, d int) bool {
	if a == d {
		return false
	}
	for h := s.Tokens[d].Head; h >= 0; h = s.Tokens[h].Head {
		if h == a {
			return true
		}
	}
	return false
}

// PathFromRoot returns the token ids on the path root..id, inclusive.
func (s *Sentence) PathFromRoot(id int) []int {
	var rev []int
	for t := id; t >= 0; t = s.Tokens[t].Head {
		rev = append(rev, t)
	}
	out := make([]int, len(rev))
	for i, t := range rev {
		out[len(rev)-1-i] = t
	}
	return out
}

// TreeString renders the dependency tree for debugging and golden tests.
func (s *Sentence) TreeString() string {
	var b strings.Builder
	var rec func(id int, indent string)
	rec = func(id int, indent string) {
		t := &s.Tokens[id]
		fmt.Fprintf(&b, "%s%s(%d) [%s/%s]\n", indent, t.Text, t.ID, t.Label, t.POS)
		for _, c := range s.children[id] {
			rec(c, indent+"  ")
		}
	}
	if s.rootID >= 0 {
		rec(s.rootID, "")
	}
	return b.String()
}

// Validate checks structural invariants of the sentence: a single root,
// acyclic heads, derived fields consistent with a naïve recomputation. It is
// used by property tests and returns a descriptive error on violation.
func (s *Sentence) Validate() error {
	n := len(s.Tokens)
	if n == 0 {
		return nil
	}
	roots := 0
	for i := range s.Tokens {
		t := &s.Tokens[i]
		if t.ID != i {
			return fmt.Errorf("token %d has ID %d", i, t.ID)
		}
		if t.Head == -1 {
			roots++
		} else if t.Head < 0 || t.Head >= n {
			return fmt.Errorf("token %d has out-of-range head %d", i, t.Head)
		}
	}
	if roots != 1 {
		return fmt.Errorf("sentence has %d roots, want 1", roots)
	}
	for i := range s.Tokens {
		seen := map[int]bool{}
		for h := i; h >= 0; h = s.Tokens[h].Head {
			if seen[h] {
				return fmt.Errorf("cycle through token %d", i)
			}
			seen[h] = true
		}
	}
	// Recompute depth/subtree naïvely and compare.
	for i := range s.Tokens {
		d := 0
		for h := s.Tokens[i].Head; h >= 0; h = s.Tokens[h].Head {
			d++
		}
		if d != s.Tokens[i].Depth {
			return fmt.Errorf("token %d depth %d, want %d", i, s.Tokens[i].Depth, d)
		}
		l, r := i, i
		for j := range s.Tokens {
			if j == i || s.IsAncestor(i, j) {
				if j < l {
					l = j
				}
				if j > r {
					r = j
				}
			}
		}
		if l != s.Tokens[i].SubL || r != s.Tokens[i].SubR {
			return fmt.Errorf("token %d subtree [%d,%d], want [%d,%d]",
				i, s.Tokens[i].SubL, s.Tokens[i].SubR, l, r)
		}
	}
	return nil
}
