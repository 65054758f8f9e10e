package store

import "encoding/binary"

// Order-preserving key encoding and compact row encoding.
//
// Index keys are encoded as a B-tree over them would store them, and only
// their lengths are counted (Table.SizeBytes). Composite keys compare
// bytewise in the same order as their column tuples compare logically. Integers are encoded big-endian with the
// sign bit flipped; strings are escaped (0x00 → 0x00 0xFF) and terminated
// with 0x00 0x01 so that a shorter string sorts before its extensions and no
// string is a bytewise prefix of a sibling component.

// AppendKeyInt appends an order-preserving encoding of v.
func AppendKeyInt(dst []byte, v int64) []byte {
	u := uint64(v) ^ (1 << 63)
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], u)
	return append(dst, buf[:]...)
}

// AppendKeyString appends an order-preserving encoding of s.
func AppendKeyString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		dst = append(dst, c)
		if c == 0x00 {
			dst = append(dst, 0xFF)
		}
	}
	return append(dst, 0x00, 0x01)
}

// Row values are int64 or string.

// ColType is a column type tag.
type ColType byte

const (
	ColInt ColType = iota
	ColString
)

// Value is a dynamically typed cell.
type Value struct {
	T ColType
	I int64
	S string
}

// IntVal wraps an int64.
func IntVal(v int64) Value { return Value{T: ColInt, I: v} }

// StrVal wraps a string.
func StrVal(s string) Value { return Value{T: ColString, S: s} }

// appendRow encodes a row compactly (varint ints, length-prefixed strings).
func appendRow(dst []byte, row []Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	for _, v := range row {
		dst = append(dst, byte(v.T))
		switch v.T {
		case ColInt:
			dst = binary.AppendVarint(dst, v.I)
		case ColString:
			dst = binary.AppendUvarint(dst, uint64(len(v.S)))
			dst = append(dst, v.S...)
		}
	}
	return dst
}
