package wal

import (
	"encoding/binary"
	"fmt"

	"repro/internal/nlp"
)

// Record is one WAL entry: an ingested document (KindAdd, with its parsed
// sentences) or a tombstone (KindTombstone, name only). Seq is assigned by
// Append and carried on disk so replay can skip the already-compacted
// prefix.
type Record struct {
	Seq   uint64
	Kind  Kind
	Name  string
	Sents []nlp.Sentence
}

// The document codec serializes exactly the fields the parse pipeline
// produces that cannot be recomputed: token text, lower, POS, label, and
// head, plus entity spans with their detokenized text. Derived tree
// geometry (Depth, SubL, SubR, adjacency, root) and entity back-links are
// rebuilt on decode via RecomputeDerived — the same discipline as the
// store's LoadSentence, which is what makes a replayed document
// byte-identical to the originally ingested one.

func encodeRecord(rec *Record) []byte {
	b := []byte{byte(rec.Kind)}
	b = binary.AppendUvarint(b, rec.Seq)
	b = appendString(b, rec.Name)
	if rec.Kind == KindAdd {
		b = encodeSentences(b, rec.Sents)
	}
	return b
}

func decodeRecord(payload []byte) (*Record, error) {
	d := &decoder{b: payload}
	rec := &Record{Kind: Kind(d.u8())}
	rec.Seq = d.uvarint()
	rec.Name = d.str()
	switch rec.Kind {
	case KindAdd:
		rec.Sents = d.sentences()
	case KindTombstone:
	default:
		return nil, fmt.Errorf("wal: unknown record kind %d", rec.Kind)
	}
	if d.err != nil {
		return nil, d.err
	}
	return rec, nil
}

func encodeSentences(b []byte, sents []nlp.Sentence) []byte {
	b = binary.AppendUvarint(b, uint64(len(sents)))
	for si := range sents {
		s := &sents[si]
		b = binary.AppendUvarint(b, uint64(len(s.Tokens)))
		for i := range s.Tokens {
			t := &s.Tokens[i]
			b = appendString(b, t.Text)
			b = appendString(b, t.Lower)
			b = appendString(b, t.POS)
			b = appendString(b, t.Label)
			b = binary.AppendVarint(b, int64(t.Head))
		}
		b = binary.AppendUvarint(b, uint64(len(s.Entities)))
		for _, e := range s.Entities {
			b = appendString(b, e.Type)
			b = appendString(b, e.Text)
			b = binary.AppendVarint(b, int64(e.L))
			b = binary.AppendVarint(b, int64(e.R))
		}
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// decoder reads the codec back with sticky error handling: after the first
// malformed read every accessor returns zero values and err records the
// failure.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("wal: truncated record payload")
	}
}

func (d *decoder) u8() byte {
	if d.err != nil || len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil || uint64(len(d.b)) < n {
		d.fail()
		return ""
	}
	v := string(d.b[:n])
	d.b = d.b[n:]
	return v
}

// Minimum encoded sizes, in bytes, of one element of each counted list: a
// sentence is at least its two empty counts, a token four empty strings and
// a one-byte head, an entity two empty strings and two one-byte offsets.
const (
	minSentenceSize = 2
	minTokenSize    = 5
	minEntitySize   = 4
)

// count reads an element count and rejects any that the remaining bytes
// cannot hold at minSize bytes per element, so a corrupt count can never
// size an allocation beyond what the payload itself backs.
func (d *decoder) count(minSize int) uint64 {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.b)/minSize) {
		d.fail()
		return 0
	}
	return n
}

func (d *decoder) sentences() []nlp.Sentence {
	ns := d.count(minSentenceSize)
	if d.err != nil {
		return nil
	}
	sents := make([]nlp.Sentence, 0, ns)
	for si := uint64(0); si < ns && d.err == nil; si++ {
		var s nlp.Sentence
		nt := d.count(minTokenSize)
		if d.err != nil {
			return nil
		}
		s.Tokens = make([]nlp.Token, 0, nt)
		for i := uint64(0); i < nt && d.err == nil; i++ {
			s.Tokens = append(s.Tokens, nlp.Token{
				ID:       int(i),
				Text:     d.str(),
				Lower:    d.str(),
				POS:      d.str(),
				Label:    d.str(),
				Head:     int(d.varint()),
				EntityID: -1,
			})
		}
		// Rebuild derived geometry first (entity construction in
		// LoadSentence follows the same order).
		s.RecomputeDerived()
		ne := d.count(minEntitySize)
		if d.err != nil {
			return nil
		}
		for i := uint64(0); i < ne && d.err == nil; i++ {
			e := nlp.Entity{
				Type: d.str(),
				Text: d.str(),
				L:    int(d.varint()),
				R:    int(d.varint()),
			}
			s.Entities = append(s.Entities, e)
			id := len(s.Entities) - 1
			for t := e.L; t >= 0 && t <= e.R && t < len(s.Tokens); t++ {
				s.Tokens[t].EntityID = id
			}
		}
		sents = append(sents, s)
	}
	if d.err != nil {
		return nil
	}
	return sents
}
