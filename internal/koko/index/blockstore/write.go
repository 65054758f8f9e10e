package blockstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sort"

	"repro/internal/koko/index"
)

// Write serializes a parsed corpus + its heap-resident index into the block
// format at path, through the corpus's columns (WriteColumns).
func Write(path string, c *index.Corpus, ix *index.Index) error {
	return WriteColumns(path, index.ColumnsOf(c), ix)
}

// WriteColumns serializes a shard's columns + heap-resident index into the
// block format at path. The output is deterministic: dictionary and list
// order is sorted, and the corpus section follows the columns' token order,
// so two writes of the same shard produce identical bytes, and so does a
// write of the columns a store decodes to.
func WriteColumns(path string, c *index.Columns, ix *index.Index) error {
	if ix.Source() != nil {
		return fmt.Errorf("blockstore: index is already block-backed; rebuild a heap index from the corpus to re-save")
	}
	var blob []byte
	appendList := func(ps []index.Posting) listDir {
		d := listDir{count: len(ps)}
		for i := 0; i < len(ps); i += BlockPostings {
			j := min(i+BlockPostings, len(ps))
			chunk := ps[i:j]
			start := len(blob)
			blob = encodePostingBlock(blob, chunk)
			enc := blob[start:]
			d.blocks = append(d.blocks, blockDir{
				off: uint64(start), encLen: uint32(len(enc)), n: uint32(len(chunk)),
				minSid: chunk[0].Sid, maxSid: chunk[len(chunk)-1].Sid,
				crc: crc32.Checksum(enc, castagnoli),
			})
		}
		return d
	}

	mw := &byteWriter{}
	words := make([]string, 0, len(ix.Word))
	for w := range ix.Word {
		words = append(words, w)
	}
	sort.Strings(words)
	mw.uvarint(uint64(len(words)))
	for _, w := range words {
		mw.str(w)
		encodeDir(mw, appendList(ix.Word[w]))
	}

	writeHier := func(h *index.Hierarchy) {
		mw.uvarint(uint64(len(h.Labels)))
		for id := 1; id < len(h.Labels); id++ {
			mw.str(h.Labels[id])
			mw.uvarint(uint64(h.Parents[id]))
		}
		mw.uvarint(uint64(h.TotalTokens))
		for id := 0; id < len(h.Labels); id++ {
			encodeDir(mw, appendList(h.Postings[id]))
		}
	}
	writeHier(ix.PL)
	writeHier(ix.POS)

	corpus := encodeCorpus(c)

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	var hdr [headerLen]byte
	copy(hdr[:8], Magic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(mw.b)))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(corpus)))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(len(blob)))
	binary.LittleEndian.PutUint32(hdr[32:], crc32.Checksum(mw.b, castagnoli))
	binary.LittleEndian.PutUint32(hdr[36:], crc32.Checksum(corpus, castagnoli))
	for _, part := range [][]byte{hdr[:], mw.b, corpus, blob} {
		if _, err := bw.Write(part); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// encodeCorpus serializes a shard's columns: a string table over token
// text/POS/label and entity types, interned in first-seen order, then
// documents and sentences. Only what the parser produces and nothing can
// recompute is kept (text, pos, label, head, entity spans); derived
// geometry is recomputed at load, so a decoded sentence equals the parser's,
// entities in its order (TestColumnsMatchParsedSentences).
func encodeCorpus(c *index.Columns) []byte {
	fileID := make([]int32, c.Dict.Len()) // dictionary id -> string-table id + 1
	var strs []string
	intern := func(id uint32) int {
		if fileID[id] == 0 {
			strs = append(strs, c.Dict.Str(id))
			fileID[id] = int32(len(strs))
		}
		return int(fileID[id] - 1)
	}
	body := &byteWriter{}
	for sid := 0; sid < c.NumSentences(); sid++ {
		s := c.Sent(sid)
		body.uvarint(uint64(s.Len()))
		nEnts := 0
		for i := range s.Surface {
			body.uvarint(uint64(intern(s.Surface[i])))
			body.uvarint(uint64(intern(s.POS[i])))
			body.uvarint(uint64(intern(s.Label[i])))
			body.uvarint(uint64(s.Head[i] + 1))
			// An entity is recorded when its first token links to it; its
			// type is interned at that token.
			if e := s.EntityID[i]; e >= 0 && int(s.EntL[e]) == i {
				intern(s.EntType[e])
				nEnts++
			}
		}
		// The recorded entities go in the sentence's own order, so a decoded
		// sentence lists them as the parser did.
		body.uvarint(uint64(nEnts))
		for e := range s.EntType {
			if s.EntityID[s.EntL[e]] == int32(e) {
				body.uvarint(uint64(intern(s.EntType[e])))
				body.uvarint(uint64(s.EntL[e]))
				body.uvarint(uint64(s.EntR[e] - s.EntL[e]))
			}
		}
	}
	w := &byteWriter{}
	w.uvarint(uint64(len(strs)))
	for _, s := range strs {
		w.str(s)
	}
	w.uvarint(uint64(len(c.Docs)))
	for _, d := range c.Docs {
		w.str(d.Name)
		w.uvarint(uint64(d.NumSents))
	}
	return append(w.b, body.b...)
}
