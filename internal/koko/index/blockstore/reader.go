package blockstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"runtime"
	"strings"
	"sync/atomic"

	"repro/internal/koko/index"
	"repro/internal/nlp"
)

var nextReaderID atomic.Uint64

// Reader is an open block store: the file stays mmap'd, metadata (string
// tables, block directories, hierarchy structure) and the corpus, as token
// columns, are resident, and posting blocks decode lazily through the shared cache on
// first touch. It implements index.PostingSource.
type Reader struct {
	path  string
	id    uint64
	data  []byte // whole mapping
	blob  []byte // encoded-blocks section
	cache *Cache

	closed atomic.Bool

	words  map[string]listDir
	hiers  [2]hierMeta
	corpus *index.Columns

	totalPostings int
}

type hierMeta struct {
	labels      []string
	parents     []int32
	totalTokens int
	nodes       []listDir
}

// IsBlockStore sniffs a file's magic without opening the store. A store of
// the first block format counts, so that Open can refuse it by name.
func IsBlockStore(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var m [8]byte
	if _, err := f.Read(m[:]); err != nil {
		return false
	}
	return string(m[:]) == Magic || string(m[:]) == oldMagic
}

// Open maps a block store, checks its section CRCs and parses its metadata
// and corpus. No posting block is decoded. The reader shares the
// process-default cache.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := st.Size()
	if size < headerLen {
		f.Close()
		return nil, fmt.Errorf("blockstore %s: file too small (%d bytes)", path, size)
	}
	data, err := mmapFile(f, size)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("blockstore %s: mmap: %w", path, err)
	}
	r := &Reader{
		path:  path,
		id:    nextReaderID.Add(1),
		data:  data,
		cache: DefaultCache(),
	}
	if err := r.parse(); err != nil {
		munmapFile(data)
		return nil, fmt.Errorf("blockstore %s: %w", path, err)
	}
	// Safety net for readers dropped without Close (tests, error paths);
	// the explicit Close path clears the finalizer.
	runtime.SetFinalizer(r, (*Reader).Close)
	return r, nil
}

// Close unmaps the store and drops its cached blocks. The reader must not
// be used afterwards.
func (r *Reader) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	runtime.SetFinalizer(r, nil)
	r.cache.dropReader(r.id)
	data := r.data
	r.data, r.blob = nil, nil
	return munmapFile(data)
}

// Path returns the file the reader is mapped over.
func (r *Reader) Path() string { return r.path }

func (r *Reader) parse() error {
	switch string(r.data[:8]) {
	case Magic:
	case oldMagic:
		return fmt.Errorf("%s is the first block store format, which this build no longer reads: rebuild the store with koko index", strings.TrimSpace(oldMagic))
	default:
		return fmt.Errorf("bad magic")
	}
	metaLen := binary.LittleEndian.Uint64(r.data[8:])
	corpusLen := binary.LittleEndian.Uint64(r.data[16:])
	blobLen := binary.LittleEndian.Uint64(r.data[24:])
	total := uint64(len(r.data))
	if metaLen > total || corpusLen > total || blobLen > total || headerLen+metaLen+corpusLen+blobLen != total {
		return fmt.Errorf("section sizes %d+%d+%d inconsistent with file size %d", metaLen, corpusLen, blobLen, total)
	}
	meta := r.data[headerLen : headerLen+metaLen]
	corpusSec := r.data[headerLen+metaLen : headerLen+metaLen+corpusLen]
	r.blob = r.data[headerLen+metaLen+corpusLen:]
	if crc32.Checksum(meta, castagnoli) != binary.LittleEndian.Uint32(r.data[32:]) {
		return fmt.Errorf("metadata section crc mismatch")
	}
	if crc32.Checksum(corpusSec, castagnoli) != binary.LittleEndian.Uint32(r.data[36:]) {
		return fmt.Errorf("corpus section crc mismatch")
	}

	br := byteReader{b: meta}
	nWords, err := br.count("word")
	if err != nil {
		return err
	}
	r.words = make(map[string]listDir, nWords)
	for i := 0; i < nWords; i++ {
		w, err := br.str()
		if err != nil {
			return err
		}
		d, err := decodeDir(&br, blobLen)
		if err != nil {
			return err
		}
		r.words[w] = d
		r.totalPostings += d.count
	}
	for k := range r.hiers {
		if r.hiers[k], err = readHier(&br, blobLen); err != nil {
			return err
		}
	}
	if !br.done() {
		return fmt.Errorf("%d trailing metadata bytes", len(meta)-br.i)
	}
	r.corpus, err = decodeCorpus(corpusSec)
	return err
}

func readStrings(br *byteReader, label string) ([]string, error) {
	n, err := br.count(label)
	if err != nil {
		return nil, err
	}
	out := make([]string, n)
	for i := range out {
		if out[i], err = br.str(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func readHier(br *byteReader, blobLen uint64) (hierMeta, error) {
	var h hierMeta
	n, err := br.count("hierarchy node")
	if err != nil {
		return h, err
	}
	if n < 1 {
		return h, fmt.Errorf("hierarchy without super-root")
	}
	h.labels = make([]string, n)
	h.parents = make([]int32, n)
	h.parents[0] = -1
	for id := 1; id < n; id++ {
		if h.labels[id], err = br.str(); err != nil {
			return h, err
		}
		p, err := br.i32()
		if err != nil {
			return h, err
		}
		if int(p) >= id {
			return h, fmt.Errorf("hierarchy node %d has forward parent %d", id, p)
		}
		h.parents[id] = p
	}
	// TotalTokens is a corpus-wide statistic, not an in-section count, so
	// the count() size-bound heuristic does not apply; bound it to int32
	// range instead (it counts real tokens).
	tt, err := br.uvarint()
	if err != nil {
		return h, err
	}
	if tt > math.MaxInt32 {
		return h, fmt.Errorf("hierarchy token count %d overflows int32", tt)
	}
	h.totalTokens = int(tt)
	h.nodes = make([]listDir, n)
	for id := 0; id < n; id++ {
		if h.nodes[id], err = decodeDir(br, blobLen); err != nil {
			return h, err
		}
	}
	return h, nil
}

// decodeCorpus decodes the corpus section straight into columns: raw token
// columns, then the tree geometry derived from the heads (the derivation
// nlp.Sentence.RecomputeDerived runs), then entities linked in the order the
// writer recorded them. No nlp.Sentence is built. The section's string
// table is interned into the columns' dictionary once; lowered,
// canonical-POS and canonical-label ids are resolved once per distinct
// string, on first use.
func decodeCorpus(sec []byte) (*index.Columns, error) {
	br := byteReader{b: sec}
	strs, err := readStrings(&br, "corpus string")
	if err != nil {
		return nil, err
	}
	c := index.NewColumns()
	// Per string-table entry: its id, and its lowered / canonical POS /
	// canonical label ids (NoID until first needed).
	ids := make([]uint32, 4*len(strs))
	for i, s := range strs {
		ids[4*i] = c.Dict.Intern(s)
		ids[4*i+1], ids[4*i+2], ids[4*i+3] = index.NoID, index.NoID, index.NoID
	}
	derived := func(i, k int, f func(string) string) uint32 {
		if ids[4*i+k] == index.NoID {
			ids[4*i+k] = c.Dict.Intern(f(strs[i]))
		}
		return ids[4*i+k]
	}
	str := func() (int, error) {
		id, err := br.count("string id")
		if err != nil {
			return 0, err
		}
		if id >= len(strs) {
			return 0, fmt.Errorf("blockstore: string id %d out of range", id)
		}
		return id, nil
	}
	nDocs, err := br.count("doc")
	if err != nil {
		return nil, err
	}
	type docMeta struct {
		name string
		n    int
	}
	docs := make([]docMeta, nDocs)
	for i := range docs {
		if docs[i].name, err = br.str(); err != nil {
			return nil, err
		}
		if docs[i].n, err = br.count("doc sentence"); err != nil {
			return nil, err
		}
	}
	var (
		surface, lower, pos, label []uint32
		head                       []int32
		ents                       []index.RawEntity
	)
	for _, dm := range docs {
		first := c.NumSentences()
		for si := 0; si < dm.n; si++ {
			nTok, err := br.count("token")
			if err != nil {
				return nil, err
			}
			surface, lower, pos, label = surface[:0], lower[:0], pos[:0], label[:0]
			head, ents = head[:0], ents[:0]
			for t := 0; t < nTok; t++ {
				textID, err := str()
				if err != nil {
					return nil, err
				}
				posID, err := str()
				if err != nil {
					return nil, err
				}
				labelID, err := str()
				if err != nil {
					return nil, err
				}
				h, err := br.count("head")
				if err != nil {
					return nil, err
				}
				if h > nTok {
					return nil, fmt.Errorf("blockstore: head %d out of range", h-1)
				}
				surface = append(surface, ids[4*textID])
				lower = append(lower, derived(textID, 1, strings.ToLower))
				pos = append(pos, derived(posID, 2, nlp.NormalizePOS))
				label = append(label, derived(labelID, 3, nlp.NormalizeLabel))
				head = append(head, int32(h-1))
			}
			nEnts, err := br.count("entity")
			if err != nil {
				return nil, err
			}
			for e := 0; e < nEnts; e++ {
				typID, err := str()
				if err != nil {
					return nil, err
				}
				l, err := br.count("entity l")
				if err != nil {
					return nil, err
				}
				span, err := br.count("entity span")
				if err != nil {
					return nil, err
				}
				if l+span >= nTok {
					return nil, fmt.Errorf("blockstore: entity span [%d,%d] outside sentence", l, l+span)
				}
				ents = append(ents, index.RawEntity{Type: ids[4*typID], L: int32(l), R: int32(l + span)})
			}
			c.AppendRawSentence(surface, lower, pos, label, head, ents)
		}
		c.EndDoc(dm.name, first)
	}
	if !br.done() {
		return nil, fmt.Errorf("blockstore: %d trailing corpus bytes", len(sec)-br.i)
	}
	return c, nil
}

// Columns returns the store's corpus as columns (heap-resident, holding no
// pointer per token).
func (r *Reader) Columns() *index.Columns { return r.corpus }

// NewIndex assembles the block-backed Index over this reader: hierarchy
// structure and the tokens' node-id columns resident, every posting list
// lazy.
func (r *Reader) NewIndex() *index.Index {
	return index.NewBlockBacked(r, r.corpus, r.hierarchy(0), r.hierarchy(1))
}

func (r *Reader) hierarchy(k int) *index.Hierarchy {
	hm := &r.hiers[k]
	n := len(hm.labels)
	h := &index.Hierarchy{
		Labels:      hm.labels,
		Depths:      make([]int32, n),
		Parents:     hm.parents,
		Children:    make([]map[string]int32, n),
		Postings:    make([][]index.Posting, n),
		TotalTokens: hm.totalTokens,
	}
	h.Depths[0] = -1
	for i := range h.Children {
		h.Children[i] = map[string]int32{}
	}
	for id := 1; id < n; id++ {
		p := hm.parents[id]
		h.Depths[id] = h.Depths[p] + 1
		h.Children[p][hm.labels[id]] = int32(id)
	}
	return h
}

// --- index.PostingSource ---

// blockList adapts one directory to index.PostingList with lazy decode.
type blockList struct {
	r *Reader
	d listDir
}

func (l *blockList) Len() int       { return l.d.count }
func (l *blockList) NumBlocks() int { return len(l.d.blocks) }

func (l *blockList) BlockBounds(i int) (int32, int32) {
	b := &l.d.blocks[i]
	return b.minSid, b.maxSid
}

func (l *blockList) Block(i int) []index.Posting {
	b := l.d.blocks[i]
	ps, err := l.r.cache.getPostings(cacheKey{l.r.id, b.off}, func() ([]index.Posting, error) {
		return l.r.decodePostings(b)
	})
	if err != nil {
		panic(&index.StoreError{Path: l.r.path, Err: err})
	}
	return ps
}

func (r *Reader) decodePostings(b blockDir) ([]index.Posting, error) {
	enc := r.blob[b.off : b.off+uint64(b.encLen)]
	if crc32.Checksum(enc, castagnoli) != b.crc {
		return nil, fmt.Errorf("blockstore: crc mismatch in block at %d", b.off)
	}
	return decodePostingBlock(enc, int(b.n))
}

// WordList implements index.PostingSource.
func (r *Reader) WordList(w string) index.PostingList {
	d, ok := r.words[w]
	if !ok || d.count == 0 {
		return nil
	}
	return &blockList{r: r, d: d}
}

// NodeList implements index.PostingSource.
func (r *Reader) NodeList(kind index.HierKind, node int32) index.PostingList {
	hm := &r.hiers[kind]
	if node < 0 || int(node) >= len(hm.nodes) || hm.nodes[node].count == 0 {
		return nil
	}
	return &blockList{r: r, d: hm.nodes[node]}
}

// SourceStats implements index.PostingSource.
func (r *Reader) SourceStats() index.SourceStats {
	return index.SourceStats{
		Words:         len(r.words),
		TotalPostings: r.totalPostings,
	}
}
