// Package blockstore implements the block-oriented on-disk store format
// (format "block", magic KOKOBS2): word and hierarchy-node posting lists
// laid out as sorted fixed-size blocks, delta + varint encoded, each with
// a CRC and min/max sentence id recorded in a directory. Entity mentions
// are stored once, in the corpus section; the index derives what it needs
// from them at open. A reader mmaps the file and decodes blocks lazily, on
// first touch, into a shared budgeted cache — so opening a store costs
// metadata + corpus only, and resident posting memory is bounded by the
// cache budget rather than corpus size.
//
// File layout:
//
//	"KOKOBS2\n"                      8-byte magic
//	metaLen, corpusLen, blobLen      3 × uint64 LE
//	metaCRC, corpusCRC               2 × uint32 LE, CRC-32C of the sections
//	meta                             word dictionary + block directories
//	corpus                           parsed sentences (custom codec)
//	blob                             concatenated encoded blocks
//
// Everything in meta and corpus is varint-coded; the blob is addressed by
// (offset, encLen) pairs from the directories. Open checks both section
// CRCs. Stores of the first format, KOKOBS1, are refused by name: they
// must be rebuilt.
package blockstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/koko/index"
)

// Magic identifies a block-format store file; an 8-byte sniff tells a store
// from a JSON shard manifest.
const Magic = "KOKOBS2\n"

// oldMagic starts a store of the first block format, which had no section
// checksums and kept entity postings; Open refuses it.
const oldMagic = "KOKOBS1\n"

// headerLen is the fixed header's size: magic, section lengths and section
// CRCs.
const headerLen = 8 + 3*8 + 2*4

// BlockPostings is the target posting count per block. 256 postings ≈ 1–2 KB
// encoded; small enough that a point lookup decodes little, large enough
// that sequential scans amortize the per-block directory entry.
const BlockPostings = 256

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// blockDir is one block's directory entry: where its encoded bytes live in
// the blob, how many entries it holds, its sentence-id bounds (for
// skip-scans), and the CRC of its encoded bytes.
type blockDir struct {
	off    uint64
	encLen uint32
	n      uint32
	minSid int32
	maxSid int32
	crc    uint32
}

// listDir is one posting list's directory: total count plus its
// blocks in (sid, tid) order.
type listDir struct {
	count  int
	blocks []blockDir
}

// --- varint primitives ---

type byteReader struct {
	b []byte
	i int
}

func (r *byteReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.i:])
	if n <= 0 {
		return 0, fmt.Errorf("blockstore: truncated varint at %d", r.i)
	}
	r.i += n
	return v, nil
}

func (r *byteReader) u32() (uint32, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxUint32 {
		return 0, fmt.Errorf("blockstore: value %d overflows uint32", v)
	}
	return uint32(v), nil
}

func (r *byteReader) i32() (int32, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt32 {
		return 0, fmt.Errorf("blockstore: value %d overflows int32", v)
	}
	return int32(v), nil
}

func (r *byteReader) count(label string) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	// Any real count fits comfortably; the bound rejects corrupt lengths
	// before they turn into giant allocations.
	if v > uint64(len(r.b)) {
		return 0, fmt.Errorf("blockstore: %s count %d exceeds section size %d", label, v, len(r.b))
	}
	return int(v), nil
}

func (r *byteReader) str() (string, error) {
	n, err := r.count("string")
	if err != nil {
		return "", err
	}
	if r.i+n > len(r.b) {
		return "", fmt.Errorf("blockstore: truncated string at %d", r.i)
	}
	s := string(r.b[r.i : r.i+n])
	r.i += n
	return s, nil
}

func (r *byteReader) done() bool { return r.i >= len(r.b) }

type byteWriter struct {
	b   []byte
	tmp [binary.MaxVarintLen64]byte
}

func (w *byteWriter) uvarint(v uint64) {
	n := binary.PutUvarint(w.tmp[:], v)
	w.b = append(w.b, w.tmp[:n]...)
}

func (w *byteWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.b = append(w.b, s...)
}

// --- posting block codec ---

// encodePostingBlock appends the delta+varint encoding of one (sid,tid)-
// sorted block to dst and returns the extended slice. Layout: first posting
// as (sid, tid), each subsequent as (dsid, tid') where tid' is a tid delta
// when dsid == 0 and an absolute tid otherwise; every posting then carries
// (u, v-u, d).
func encodePostingBlock(dst []byte, ps []index.Posting) []byte {
	w := byteWriter{b: dst}
	prevSid, prevTid := int32(-1), int32(0)
	for k, p := range ps {
		if k == 0 {
			w.uvarint(uint64(p.Sid))
			w.uvarint(uint64(p.Tid))
		} else if p.Sid == prevSid {
			w.uvarint(0)
			w.uvarint(uint64(p.Tid - prevTid))
		} else {
			w.uvarint(uint64(p.Sid - prevSid))
			w.uvarint(uint64(p.Tid))
		}
		prevSid, prevTid = p.Sid, p.Tid
		w.uvarint(uint64(p.U))
		w.uvarint(uint64(p.V - p.U))
		w.uvarint(uint64(p.D))
	}
	return w.b
}

// decodePostingBlock decodes one encoded block. It rejects truncated input,
// trailing garbage, non-monotonic (sid, tid) order, and values outside
// int32 range — anything CRC-valid but structurally impossible.
func decodePostingBlock(enc []byte, n int) ([]index.Posting, error) {
	r := byteReader{b: enc}
	out := make([]index.Posting, 0, n)
	prevSid, prevTid := int32(-1), int32(0)
	for k := 0; k < n; k++ {
		var sid, tid int32
		if k == 0 {
			var err error
			if sid, err = r.i32(); err != nil {
				return nil, err
			}
			if tid, err = r.i32(); err != nil {
				return nil, err
			}
		} else {
			dsid, err := r.i32()
			if err != nil {
				return nil, err
			}
			t, err := r.i32()
			if err != nil {
				return nil, err
			}
			if dsid == 0 {
				if t == 0 {
					return nil, fmt.Errorf("blockstore: duplicate (sid,tid) at posting %d", k)
				}
				sid, tid = prevSid, prevTid+t
			} else {
				sid, tid = prevSid+dsid, t
			}
			if sid < prevSid {
				return nil, fmt.Errorf("blockstore: sid overflow at posting %d", k)
			}
		}
		if tid < 0 {
			return nil, fmt.Errorf("blockstore: tid overflow at posting %d", k)
		}
		prevSid, prevTid = sid, tid
		u, err := r.i32()
		if err != nil {
			return nil, err
		}
		dv, err := r.i32()
		if err != nil {
			return nil, err
		}
		d, err := r.i32()
		if err != nil {
			return nil, err
		}
		if u > math.MaxInt32-dv {
			return nil, fmt.Errorf("blockstore: interval overflow at posting %d", k)
		}
		out = append(out, index.Posting{Sid: sid, Tid: tid, U: u, V: u + dv, D: d})
	}
	if !r.done() {
		return nil, fmt.Errorf("blockstore: %d trailing bytes after %d postings", len(enc)-r.i, n)
	}
	return out, nil
}

// --- directory codec ---

func encodeDir(w *byteWriter, d listDir) {
	w.uvarint(uint64(d.count))
	w.uvarint(uint64(len(d.blocks)))
	for _, b := range d.blocks {
		w.uvarint(b.off)
		w.uvarint(uint64(b.encLen))
		w.uvarint(uint64(b.n))
		w.uvarint(uint64(b.minSid))
		w.uvarint(uint64(b.maxSid))
		w.uvarint(uint64(b.crc))
	}
}

func decodeDir(r *byteReader, blobLen uint64) (listDir, error) {
	var d listDir
	count, err := r.count("list")
	if err != nil {
		return d, err
	}
	nb, err := r.count("block")
	if err != nil {
		return d, err
	}
	d.count = count
	d.blocks = make([]blockDir, nb)
	for i := range d.blocks {
		b := &d.blocks[i]
		if b.off, err = r.uvarint(); err != nil {
			return d, err
		}
		if b.encLen, err = r.u32(); err != nil {
			return d, err
		}
		if b.n, err = r.u32(); err != nil {
			return d, err
		}
		if b.minSid, err = r.i32(); err != nil {
			return d, err
		}
		if b.maxSid, err = r.i32(); err != nil {
			return d, err
		}
		if b.crc, err = r.u32(); err != nil {
			return d, err
		}
		if b.off+uint64(b.encLen) > blobLen {
			return d, fmt.Errorf("blockstore: block [%d,+%d) outside blob of %d bytes", b.off, b.encLen, blobLen)
		}
	}
	return d, nil
}
