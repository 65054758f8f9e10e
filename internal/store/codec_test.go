package store

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestKeyEncodingOrder(t *testing.T) {
	// Integer ordering must be preserved, including negatives.
	ints := []int64{-1 << 62, -100, -1, 0, 1, 42, 1 << 40}
	var prev []byte
	for i, v := range ints {
		cur := AppendKeyInt(nil, v)
		if i > 0 && bytes.Compare(prev, cur) >= 0 {
			t.Errorf("int key order broken at %d", v)
		}
		d, rest := decodeKeyInt(cur)
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

// decodeKeyInt decodes an integer written by AppendKeyInt and returns the
// remaining bytes.
func decodeKeyInt(src []byte) (int64, []byte) {
	u := binary.BigEndian.Uint64(src[:8])
	return int64(u ^ (1 << 63)), src[8:]
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
