package wal

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/nlp"
)

func parsedDoc(t *testing.T, text string) []nlp.Sentence {
	t.Helper()
	doc := nlp.NewPipeline().Annotate(0, "t.txt", text, 0)
	if len(doc.Sentences) == 0 {
		t.Fatal("pipeline produced no sentences")
	}
	return doc.Sentences
}

// normIDs returns a copy of sents with sentence IDs zeroed: the codec does
// not persist them (the delta renumbers on replay), so equality is over
// everything else — tokens, derived geometry, entities.
func normIDs(sents []nlp.Sentence) []nlp.Sentence {
	out := make([]nlp.Sentence, len(sents))
	copy(out, sents)
	for i := range out {
		out[i].ID = 0
	}
	return out
}

func openCollect(t *testing.T, path string, policy SyncPolicy) (*Log, []*Record) {
	t.Helper()
	var recs []*Record
	l, err := Open(path, policy, func(r *Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	return l, recs
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	sents := parsedDoc(t, "Cafe Vita serves smooth espresso daily. Anna ate some delicious cheesecake that she bought at a grocery store.")

	l, recs := openCollect(t, path, SyncAlways)
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	seq, err := l.Append(
		Record{Kind: KindAdd, Name: "a.txt", Sents: sents},
		Record{Kind: KindTombstone, Name: "a.txt"},
		Record{Kind: KindAdd, Name: "b.txt", Sents: sents},
	)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 {
		t.Fatalf("last seq = %d, want 3", seq)
	}
	if l.Appends() != 3 {
		t.Fatalf("appends = %d, want 3", l.Appends())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, recs := openCollect(t, path, SyncNone)
	defer l2.Close()
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	wantKinds := []Kind{KindAdd, KindTombstone, KindAdd}
	wantNames := []string{"a.txt", "a.txt", "b.txt"}
	for i, r := range recs {
		if r.Seq != uint64(i+1) || r.Kind != wantKinds[i] || r.Name != wantNames[i] {
			t.Fatalf("record %d = {seq %d kind %d name %q}", i, r.Seq, r.Kind, r.Name)
		}
	}
	if !reflect.DeepEqual(normIDs(recs[0].Sents), normIDs(sents)) {
		t.Fatal("replayed sentences differ from originals (tokens, geometry, or entities)")
	}
	if l2.LastSeq() != 3 {
		t.Fatalf("LastSeq = %d, want 3", l2.LastSeq())
	}
}

func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	sents := parsedDoc(t, "I ate a pie.")
	l, _ := openCollect(t, path, SyncAlways)
	if _, err := l.Append(
		Record{Kind: KindAdd, Name: "a.txt", Sents: sents},
		Record{Kind: KindAdd, Name: "b.txt", Sents: sents},
	); err != nil {
		t.Fatal(err)
	}
	good := l.Size()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a partial frame at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, recs := openCollect(t, path, SyncNone)
	if len(recs) != 2 {
		t.Fatalf("replayed %d records after torn tail, want 2", len(recs))
	}
	if l2.Size() != good {
		t.Fatalf("size after recovery = %d, want %d", l2.Size(), good)
	}
	// The log must be appendable after tail truncation.
	if seq, err := l2.Append(Record{Kind: KindTombstone, Name: "a.txt"}); err != nil || seq != 3 {
		t.Fatalf("append after recovery: seq %d err %v", seq, err)
	}
	l2.Close()

	_, recs = openCollect(t, path, SyncNone)
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
}

func TestTornTailLengthPastEOF(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := openCollect(t, path, SyncAlways)
	if _, err := l.Append(Record{Kind: KindAdd, Name: "a.txt", Sents: parsedDoc(t, "I ate a pie.")}); err != nil {
		t.Fatal(err)
	}
	good := l.Size()
	l.Close()

	// The length field is outside the checksum, so a torn tail can declare
	// a near-maxPayload frame with only a few bytes behind it.
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[:4], maxPayload-1)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(frame[:], "torn"...)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l2, recs := openCollect(t, path, SyncNone)
	runtime.ReadMemStats(&after)
	defer l2.Close()
	if len(recs) != 1 || recs[0].Name != "a.txt" {
		t.Fatalf("replayed %d records, want the 1 intact prefix record", len(recs))
	}
	if l2.Size() != good {
		t.Fatalf("torn tail not truncated: size %d, want %d", l2.Size(), good)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Fatalf("recovery allocated %d bytes for a frame that runs past EOF", grew)
	}
}

func TestCorruptRecordStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	sents := parsedDoc(t, "I ate a pie.")
	l, _ := openCollect(t, path, SyncAlways)
	if _, err := l.Append(Record{Kind: KindAdd, Name: "a.txt", Sents: sents}); err != nil {
		t.Fatal(err)
	}
	firstEnd := l.Size()
	if _, err := l.Append(Record{Kind: KindAdd, Name: "b.txt", Sents: sents}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Flip one payload byte of the second record: its checksum fails and
	// replay keeps only the intact prefix.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[firstEnd+10] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, recs := openCollect(t, path, SyncNone)
	defer l2.Close()
	if len(recs) != 1 || recs[0].Name != "a.txt" {
		t.Fatalf("replayed %d records, want the 1 intact prefix record", len(recs))
	}
	if l2.Size() != firstEnd {
		t.Fatalf("corrupt suffix not truncated: size %d, want %d", l2.Size(), firstEnd)
	}
}

func TestTruncatePrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	sents := parsedDoc(t, "I ate a pie.")
	l, _ := openCollect(t, path, SyncBatch)
	names := []string{"a", "b", "c", "d", "e"}
	for _, n := range names {
		if _, err := l.Append(Record{Kind: KindAdd, Name: n, Sents: sents}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.TruncatePrefix(3); err != nil {
		t.Fatal(err)
	}
	// Appends after a truncate continue the global sequence.
	if seq, err := l.Append(Record{Kind: KindAdd, Name: "f", Sents: sents}); err != nil || seq != 6 {
		t.Fatalf("append after truncate: seq %d err %v", seq, err)
	}
	l.Close()

	_, recs := openCollect(t, path, SyncNone)
	got := []string{}
	for _, r := range recs {
		got = append(got, r.Name)
	}
	if !reflect.DeepEqual(got, []string{"d", "e", "f"}) {
		t.Fatalf("after TruncatePrefix(3) replay = %v, want [d e f]", got)
	}
	if recs[0].Seq != 4 {
		t.Fatalf("first surviving seq = %d, want 4", recs[0].Seq)
	}
}

func TestTruncatePrefixAll(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	sents := parsedDoc(t, "I ate a pie.")
	l, _ := openCollect(t, path, SyncNone)
	if _, err := l.Append(Record{Kind: KindAdd, Name: "a", Sents: sents}); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncatePrefix(1); err != nil {
		t.Fatal(err)
	}
	if l.Size() != headerSize {
		t.Fatalf("size after full truncate = %d, want header only", l.Size())
	}
	l.Close()

	l2, recs := openCollect(t, path, SyncNone)
	defer l2.Close()
	if len(recs) != 0 {
		t.Fatalf("replayed %d records, want 0", len(recs))
	}
	// The sequence must not restart: the next record is seq 2.
	if seq, err := l2.Append(Record{Kind: KindTombstone, Name: "a"}); err != nil || seq != 2 {
		t.Fatalf("append after full truncate: seq %d err %v", seq, err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{"": SyncBatch, "batch": SyncBatch, "none": SyncNone, "always": SyncAlways} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseSyncPolicy accepted an unknown policy")
	}
}
