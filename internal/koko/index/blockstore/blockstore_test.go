package blockstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/koko/index"
)

// genPostings builds n (sid,tid)-sorted postings with sid runs and gaps.
func genPostings(n int, seed int64) []index.Posting {
	rng := rand.New(rand.NewSource(seed))
	out := make([]index.Posting, 0, n)
	sid, tid := int32(rng.Intn(3)), int32(0)
	for len(out) < n {
		if rng.Intn(3) == 0 || tid == 0 {
			tid += int32(1 + rng.Intn(9))
		} else {
			sid += int32(1 + rng.Intn(50))
			tid = int32(1 + rng.Intn(9))
		}
		u := int32(rng.Intn(40))
		out = append(out, index.Posting{
			Sid: sid, Tid: tid, U: u, V: u + int32(rng.Intn(12)), D: int32(rng.Intn(6)),
		})
	}
	return out
}

func TestPostingBlockRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 7, BlockPostings} {
		ps := genPostings(n, int64(n))
		enc := encodePostingBlock(nil, ps)
		got, err := decodePostingBlock(enc, n)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if !reflect.DeepEqual(ps, got) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
	}
}

// TestPostingBlockRejectsCorruption: every truncation of a valid encoding,
// trailing garbage, and in-block (sid,tid) duplicates are all rejected.
func TestPostingBlockRejectsCorruption(t *testing.T) {
	ps := genPostings(20, 3)
	enc := encodePostingBlock(nil, ps)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := decodePostingBlock(enc[:cut], len(ps)); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	if _, err := decodePostingBlock(append(append([]byte{}, enc...), 0), len(ps)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	dup := encodePostingBlock(nil, []index.Posting{
		{Sid: 1, Tid: 2, U: 0, V: 1}, {Sid: 1, Tid: 2, U: 3, V: 4},
	})
	if _, err := decodePostingBlock(dup, 2); err == nil {
		t.Fatal("duplicate (sid,tid) accepted")
	}
}

// FuzzBlockDecode: arbitrary bytes never panic, and anything the decoder
// accepts must re-encode to the identical bytes (varint coding is canonical,
// so accept ⇒ canonical form).
func FuzzBlockDecode(f *testing.F) {
	f.Add(encodePostingBlock(nil, genPostings(5, 1)), 5)
	f.Add(encodePostingBlock(nil, genPostings(BlockPostings, 2)), BlockPostings)
	f.Add([]byte{}, 0)
	f.Add([]byte{0xff, 0xff, 0xff}, 2)
	f.Fuzz(func(t *testing.T, enc []byte, n int) {
		if n < 0 || n > BlockPostings {
			return
		}
		ps, err := decodePostingBlock(enc, n)
		if err == nil {
			if re := encodePostingBlock(nil, ps); !bytes.Equal(re, enc) {
				t.Fatalf("accepted non-canonical encoding: %x -> %x", enc, re)
			}
		}
	})
}

// testCorpus parses a small but representative corpus: repeated words (multi
// block sharing), entities, multiple docs.
func testCorpus(t *testing.T) *index.Corpus {
	t.Helper()
	return index.NewCorpus(
		[]string{"a.txt", "b.txt"},
		[]string{
			"Alice met Bob in Paris. Alice Johnson runs the Blue Bottle Cafe. The cafe serves coffee and espresso.",
			"Bob visited the Blue Bottle Cafe in Paris. He liked the espresso. Alice agreed that the coffee was delicious.",
		},
	)
}

func writeTestStore(t *testing.T) (string, *index.Corpus, *index.Index) {
	t.Helper()
	c := testCorpus(t)
	ix := index.Build(c)
	path := filepath.Join(t.TempDir(), "c.koko")
	if err := Write(path, c, ix); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return path, c, ix
}

// TestStoreRoundTrip: a written store reopens with columns that read back
// as the parsed corpus and posting lists identical to the heap index it was built from.
func TestStoreRoundTrip(t *testing.T) {
	path, c, ix := writeTestStore(t)
	if !IsBlockStore(path) {
		t.Fatal("IsBlockStore = false on a block store")
	}
	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()

	rc := r.Columns()
	if rc.NumDocs() != c.NumDocs() || rc.NumSentences() != c.NumSentences() {
		t.Fatalf("corpus shape %d/%d, want %d/%d", rc.NumDocs(), rc.NumSentences(), c.NumDocs(), c.NumSentences())
	}
	for i := range c.Sentences {
		got := rc.Sent(i)
		if err := sentenceDiff(&c.Sentences[i], &got); err != nil {
			t.Fatalf("sentence %d: %v", i, err)
		}
	}

	bix := r.NewIndex()
	words := make([]string, 0, len(ix.Word))
	for w := range ix.Word {
		words = append(words, w)
	}
	sort.Strings(words)
	for _, w := range words {
		want := materialize(ix.WordList(w))
		got := materialize(bix.WordList(w))
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("word %q postings differ:\n got %+v\nwant %+v", w, got, want)
		}
	}
	for _, typ := range entityTypes {
		ws, wc := ix.EntityCounts(typ)
		gs, gc := bix.EntityCounts(typ)
		if !reflect.DeepEqual(ws, gs) || !reflect.DeepEqual(wc, gc) {
			t.Fatalf("type %q counts differ:\n got %v %v\nwant %v %v", typ, gs, gc, ws, wc)
		}
	}
	for _, p := range []index.Path{
		{{Label: "ROOT"}},
		{{Label: "ROOT"}, {Label: "nsubj"}},
		{{Label: "*"}, {Desc: true, Label: "dobj"}},
	} {
		if want, got := lookupPostings(ix.PL, p), lookupPostings(bix.PL, p); !reflect.DeepEqual(want, got) {
			t.Fatalf("PL %v postings differ", p)
		}
	}
	ws, bs := ix.Stats(), bix.Stats()
	if ws != bs {
		t.Fatalf("stats differ:\n got %+v\nwant %+v", bs, ws)
	}
}

// TestStoreRejectsCorruptMeta: header/meta damage fails at Open; blob damage
// fails at first block touch with a *index.StoreError panic.
func TestStoreRejectsCorruption(t *testing.T) {
	path, _, ix := writeTestStore(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Truncations of the file must never open successfully.
	for _, cut := range []int{0, 4, len(raw) / 2, len(raw) - 1} {
		p2 := filepath.Join(t.TempDir(), "trunc.koko")
		if err := os.WriteFile(p2, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err := Open(p2); err == nil {
			r.Close()
			t.Fatalf("truncated store (%d bytes) opened", cut)
		}
	}

	// Flip the blob's first byte (the first word list's first block; word
	// lists are written first): Open succeeds — blocks are lazy — but the
	// CRC check turns the first touch into a StoreError.
	metaLen := binary.LittleEndian.Uint64(raw[8:])
	corpusLen := binary.LittleEndian.Uint64(raw[16:])
	blobStart := headerLen + metaLen + corpusLen
	bad := append([]byte{}, raw...)
	bad[blobStart] ^= 0xff
	p3 := filepath.Join(t.TempDir(), "blob.koko")
	if err := os.WriteFile(p3, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(p3)
	if err != nil {
		t.Fatalf("Open with corrupt blob: %v (want lazy failure)", err)
	}
	defer r.Close()
	bix := r.NewIndex()
	caught := 0
	for w := range ix.Word {
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					if _, ok := rec.(*index.StoreError); !ok {
						t.Fatalf("panic of type %T, want *index.StoreError", rec)
					}
					caught++
				}
			}()
			materialize(bix.WordList(w))
		}()
	}
	if caught == 0 {
		t.Fatal("no word lookup hit the corrupted block")
	}
}

// TestStoreSectionBitFlips: one flipped bit at any offset of the header,
// the metadata section or the corpus section either fails Open or, if the
// store opens, fails reading some list with a *index.StoreError. A flip
// that opens and serves every list unharmed (a changed word or label
// string, entity span or token) fails the test.
func TestStoreSectionBitFlips(t *testing.T) {
	path, _, ix := writeTestStore(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	metaLen := int(binary.LittleEndian.Uint64(raw[8:]))
	corpusLen := int(binary.LittleEndian.Uint64(raw[16:]))
	blobLen := int(binary.LittleEndian.Uint64(raw[24:]))
	corpusEnd := len(raw) - blobLen
	metaStart := corpusEnd - corpusLen - metaLen
	p := filepath.Join(t.TempDir(), "flip.koko")
	var served []int
	for off := 0; off < corpusEnd; off++ {
		bad := bytes.Clone(raw)
		bad[off] ^= 1 << (off % 8)
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(p)
		if err != nil {
			continue
		}
		if !failsSomeRead(t, r, ix) {
			served = append(served, off)
		}
		r.Close()
	}
	if len(served) > 0 {
		t.Fatalf("%d of %d flips (header 0-%d, meta to %d, corpus to %d) opened and served, first at offsets %v",
			len(served), corpusEnd, metaStart, metaStart+metaLen, corpusEnd, served[:min(len(served), 10)])
	}
}

// failsSomeRead reads every word list of ix's vocabulary and every
// hierarchy-node list from r and reports whether one failed with a
// *index.StoreError; any other panic fails the test.
func failsSomeRead(t *testing.T, r *Reader, ix *index.Index) (failed bool) {
	t.Helper()
	defer func() {
		if rec := recover(); rec != nil {
			if _, ok := rec.(*index.StoreError); !ok {
				t.Fatalf("panic of type %T (%v), want *index.StoreError", rec, rec)
			}
			failed = true
		}
	}()
	bix := r.NewIndex()
	for w := range ix.Word {
		materialize(bix.WordList(w))
	}
	for _, h := range []*index.Hierarchy{bix.PL, bix.POS} {
		for n := range h.Labels {
			materialize(h.NodeList(int32(n)))
		}
	}
	return false
}

// TestOldStoreRefusedByName: a store of the first block format is still
// recognised as a block store, and Open refuses it with an error that
// names the format and says how to rebuild it.
func TestOldStoreRefusedByName(t *testing.T) {
	path, _, _ := writeTestStore(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(raw, "KOKOBS1\n")
	old := filepath.Join(t.TempDir(), "old.koko")
	if err := os.WriteFile(old, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if !IsBlockStore(old) {
		t.Fatal("IsBlockStore = false on a KOKOBS1 store")
	}
	r, err := Open(old)
	if err == nil {
		r.Close()
		t.Fatal("KOKOBS1 store opened")
	}
	for _, want := range []string{old, "KOKOBS1", "koko index"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// TestCacheBudget: decoded residency stays near the budget and evictions
// happen once the working set exceeds it.
func TestCacheBudget(t *testing.T) {
	path, _, ix := writeTestStore(t)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	const budget = 4 << 10
	r.cache = NewCache(budget)
	bix := r.NewIndex()
	for pass := 0; pass < 3; pass++ {
		for w := range ix.Word {
			materialize(bix.WordList(w))
		}
	}
	st := r.cache.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a %d-byte budget: %+v", budget, st)
	}
	// CLOCK stops sweeping after a bounded number of steps, so residency may
	// overshoot, but only by a block or two — not the whole store.
	if st.UsedBytes > 4*budget {
		t.Fatalf("resident %d bytes far exceeds budget %d", st.UsedBytes, budget)
	}
	if st.Hits == 0 || st.Misses == 0 || st.Decodes == 0 {
		t.Fatalf("counters not moving: %+v", st)
	}
}

// TestCacheSingleflight: concurrent first touches of one block decode once.
func TestCacheSingleflight(t *testing.T) {
	path, _, _ := writeTestStore(t)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.cache = NewCache(0) // unbounded
	l := r.WordList("the")
	if l == nil {
		t.Fatal(`word "the" missing from test store`)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < l.NumBlocks(); i++ {
				l.Block(i)
			}
		}()
	}
	wg.Wait()
	if st := r.cache.Stats(); st.Decodes != int64(l.NumBlocks()) {
		t.Fatalf("decodes = %d, want %d (singleflight)", st.Decodes, l.NumBlocks())
	}
}

// TestCacheLoadPanicFailsEntry: a decode that panics (a memory fault on a
// store truncated under its mapping) still fails its cache entry, so a
// goroutine waiting on that block gets an error instead of blocking forever,
// the panic reaches the decoding goroutine's caller, and a later access
// decodes the block afresh.
func TestCacheLoadPanicFailsEntry(t *testing.T) {
	c := NewCache(0)
	key := cacheKey{rid: 1, off: 0}
	started, release := make(chan struct{}), make(chan struct{})
	owner := make(chan any, 1)
	go func() {
		defer func() { owner <- recover() }()
		c.getPostings(key, func() ([]index.Posting, error) {
			close(started)
			<-release
			panic("fault")
		})
	}()
	<-started
	waiter := make(chan error, 1)
	go func() {
		// If the failed entry is already gone this goroutine decodes itself;
		// either way it must come back with an error.
		_, err := c.getPostings(key, func() ([]index.Posting, error) {
			return nil, errors.New("decoded after the failure")
		})
		waiter <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter block on the entry
	close(release)
	timeout := time.After(5 * time.Second)
	select {
	case r := <-owner:
		if r != "fault" {
			t.Fatalf("decoding goroutine recovered %v, want the load's panic", r)
		}
	case <-timeout:
		t.Fatal("decoding goroutine did not return")
	}
	select {
	case err := <-waiter:
		if err == nil {
			t.Fatal("waiter on a panicked decode got no error")
		}
	case <-timeout:
		t.Fatal("waiter on a panicked decode blocked forever")
	}
	want := []index.Posting{{Sid: 7}}
	got, err := c.getPostings(key, func() ([]index.Posting, error) { return want, nil })
	if err != nil || len(got) != 1 || got[0] != want[0] {
		t.Fatalf("access after the failure = %v, %v; want a fresh decode", got, err)
	}
}

// TestIsBlockStore: row stores and junk are not misdetected.
func TestIsBlockStoreNegative(t *testing.T) {
	dir := t.TempDir()
	row := filepath.Join(dir, "row.koko")
	if err := os.WriteFile(row, []byte("KOKODB1\nstuff"), 0o644); err != nil {
		t.Fatal(err)
	}
	if IsBlockStore(row) {
		t.Fatal("row store misdetected as block store")
	}
	if IsBlockStore(filepath.Join(dir, "missing.koko")) {
		t.Fatal("missing file detected as block store")
	}
}

// materialize concatenates a possibly-lazy list's blocks into one slice.
func materialize(l index.PostingList) []index.Posting {
	if l == nil {
		return nil
	}
	var out []index.Posting
	for i := range l.NumBlocks() {
		out = append(out, l.Block(i)...)
	}
	return out
}

// lookupPostings is the materialized union of every hierarchy node whose
// root path matches p: the node lists concatenated, sorted and
// deduplicated.
func lookupPostings(h *index.Hierarchy, p index.Path) []index.Posting {
	var out []index.Posting
	for _, n := range h.LookupNodes(p) {
		out = append(out, materialize(h.NodeList(n))...)
	}
	index.SortPostings(out)
	return slices.Compact(out)
}
