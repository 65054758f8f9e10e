package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestBTreeBasic(t *testing.T) {
	tr := NewBTree()
	if _, ok := tr.Get([]byte("missing")); ok {
		t.Fatal("empty tree returned a value")
	}
	tr.Insert([]byte("b"), []byte("2"))
	tr.Insert([]byte("a"), []byte("1"))
	tr.Insert([]byte("c"), []byte("3"))
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	for k, v := range map[string]string{"a": "1", "b": "2", "c": "3"} {
		got, ok := tr.Get([]byte(k))
		if !ok || string(got) != v {
			t.Errorf("Get(%q) = %q,%v", k, got, ok)
		}
	}
	tr.Insert([]byte("b"), []byte("2x"))
	if got, _ := tr.Get([]byte("b")); string(got) != "2x" {
		t.Errorf("overwrite failed: %q", got)
	}
	if tr.Len() != 3 {
		t.Errorf("Len after overwrite = %d", tr.Len())
	}
}

func TestBTreeLargeOrdered(t *testing.T) {
	tr := NewBTree()
	const n = 20000
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key%08d", i))
		tr.Insert(key, []byte(fmt.Sprintf("v%d", i)))
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	if tr.height < 2 {
		t.Errorf("height = %d, expected splits", tr.height)
	}
	// Full in-order scan.
	var prev []byte
	count := 0
	for it := tr.Min(); it.Valid(); it.Next() {
		if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
			t.Fatalf("keys out of order: %q then %q", prev, it.Key())
		}
		prev = append(prev[:0], it.Key()...)
		count++
	}
	if count != n {
		t.Fatalf("scanned %d keys, want %d", count, n)
	}
}

func TestBTreeRandomVsMap(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tr := NewBTree()
	ref := map[string]string{}
	for i := 0; i < 30000; i++ {
		k := fmt.Sprintf("k%06d", r.Intn(10000))
		v := fmt.Sprintf("v%d", i)
		tr.Insert([]byte(k), []byte(v))
		ref[k] = v
	}
	if tr.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(ref))
	}
	for k, v := range ref {
		got, ok := tr.Get([]byte(k))
		if !ok || string(got) != v {
			t.Fatalf("Get(%q) = %q,%v want %q", k, got, ok, v)
		}
	}
	// Ordered iteration must visit exactly the reference keys in sorted order.
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	i := 0
	for it := tr.Min(); it.Valid(); it.Next() {
		if string(it.Key()) != keys[i] {
			t.Fatalf("iter %d: %q, want %q", i, it.Key(), keys[i])
		}
		i++
	}
	if i != len(keys) {
		t.Fatalf("iterated %d, want %d", i, len(keys))
	}
}

func TestBTreeDelete(t *testing.T) {
	tr := NewBTree()
	for i := 0; i < 1000; i++ {
		tr.Insert([]byte(fmt.Sprintf("k%04d", i)), []byte("v"))
	}
	for i := 0; i < 1000; i += 2 {
		if !tr.Delete([]byte(fmt.Sprintf("k%04d", i))) {
			t.Fatalf("delete k%04d failed", i)
		}
	}
	if tr.Delete([]byte("k0000")) {
		t.Error("double delete succeeded")
	}
	if tr.Len() != 500 {
		t.Fatalf("Len = %d, want 500", tr.Len())
	}
	for i := 0; i < 1000; i++ {
		_, ok := tr.Get([]byte(fmt.Sprintf("k%04d", i)))
		if want := i%2 == 1; ok != want {
			t.Fatalf("Get k%04d = %v, want %v", i, ok, want)
		}
	}
}

func TestBTreeSeekAndRange(t *testing.T) {
	tr := NewBTree()
	for i := 0; i < 100; i += 2 {
		tr.Insert([]byte(fmt.Sprintf("k%02d", i)), nil)
	}
	it := tr.Seek([]byte("k51"))
	if !it.Valid() || string(it.Key()) != "k52" {
		t.Errorf("Seek(k51) = %q", it.Key())
	}
	var got []string
	for it := tr.Seek([]byte("k10")); it.Valid() && bytes.Compare(it.Key(), []byte("k20")) < 0; it.Next() {
		got = append(got, string(it.Key()))
	}
	want := []string{"k10", "k12", "k14", "k16", "k18"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Seek range = %v, want %v", got, want)
	}
	got = nil
	tr.ScanPrefix([]byte("k1"), func(k, _ []byte) bool {
		got = append(got, string(k))
		return true
	})
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("ScanPrefix = %v, want %v", got, want)
	}
}

// TestBTreeQuick is a property test: a B+tree behaves like a sorted map for
// arbitrary insert sequences.
func TestBTreeQuick(t *testing.T) {
	f := func(keys [][]byte) bool {
		tr := NewBTree()
		ref := map[string][]byte{}
		for i, k := range keys {
			v := []byte(fmt.Sprintf("%d", i))
			kc := append([]byte(nil), k...)
			tr.Insert(kc, v)
			ref[string(k)] = v
		}
		if tr.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := tr.Get([]byte(k))
			if !ok || !bytes.Equal(got, v) {
				return false
			}
		}
		// In-order.
		var prev []byte
		first := true
		okOrder := true
		for it := tr.Min(); it.Valid(); it.Next() {
			if !first && bytes.Compare(prev, it.Key()) >= 0 {
				okOrder = false
			}
			prev = append(prev[:0], it.Key()...)
			first = false
		}
		return okOrder
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestKeyEncodingOrder(t *testing.T) {
	// Integer ordering must be preserved, including negatives.
	ints := []int64{-1 << 62, -100, -1, 0, 1, 42, 1 << 40}
	var prev []byte
	for i, v := range ints {
		cur := AppendKeyInt(nil, v)
		if i > 0 && bytes.Compare(prev, cur) >= 0 {
			t.Errorf("int key order broken at %d", v)
		}
		d, rest := DecodeKeyInt(cur)
		if d != v || len(rest) != 0 {
			t.Errorf("roundtrip %d -> %d", v, d)
		}
		prev = cur
	}
	// String ordering, including embedded NULs and prefixes.
	strs := []string{"", "a", "a\x00", "a\x00b", "ab", "b"}
	prev = nil
	for i, s := range strs {
		cur := AppendKeyString(nil, s)
		if i > 0 && bytes.Compare(prev, cur) >= 0 {
			t.Errorf("string key order broken at %q", s)
		}
		d, rest := decodeKeyString(cur)
		if d != s || len(rest) != 0 {
			t.Errorf("roundtrip %q -> %q (rest %d)", s, d, len(rest))
		}
		prev = cur
	}
	// Composite keys: (s, i) tuples compare lexicographically.
	k1 := AppendKeyInt(AppendKeyString(nil, "ate"), 5)
	k2 := AppendKeyInt(AppendKeyString(nil, "ate"), 6)
	k3 := AppendKeyInt(AppendKeyString(nil, "atea"), 0)
	if !(bytes.Compare(k1, k2) < 0 && bytes.Compare(k2, k3) < 0) {
		t.Error("composite key order broken")
	}
}

func TestKeyEncodingQuick(t *testing.T) {
	f := func(a, b string, x, y int64) bool {
		ka := AppendKeyInt(AppendKeyString(nil, a), x)
		kb := AppendKeyInt(AppendKeyString(nil, b), y)
		cmp := bytes.Compare(ka, kb)
		var want int
		switch {
		case a < b:
			want = -1
		case a > b:
			want = 1
		case x < y:
			want = -1
		case x > y:
			want = 1
		}
		return cmp == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// decodeKeyString decodes a string written by AppendKeyString and returns the
// remaining bytes: the inverse the key-order test round-trips through.
func decodeKeyString(src []byte) (string, []byte) {
	var out []byte
	for i := 0; i < len(src); i++ {
		c := src[i]
		if c != 0x00 {
			out = append(out, c)
			continue
		}
		if i+1 < len(src) && src[i+1] == 0xFF {
			out = append(out, 0x00)
			i++
			continue
		}
		return string(out), src[i+2:]
	}
	return string(out), nil
}
