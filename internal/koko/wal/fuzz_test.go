package wal

import (
	"reflect"
	"testing"

	"repro/internal/nlp"
)

// FuzzWALRecord: replay decodes whatever a crash or a bad disk leaves in a
// checksummed frame, so decodeRecord must return (not panic, not run out of
// memory) for any payload, and every payload it
// accepts must survive an encode/decode round trip unchanged. Minimised
// failures live in testdata/fuzz/FuzzWALRecord.
func FuzzWALRecord(f *testing.F) {
	doc := nlp.NewPipeline().Annotate(0, "t.txt", "Cafe Vita serves smooth espresso daily. Anna ate a pie.", 0)
	for _, rec := range []Record{
		{Seq: 1, Kind: KindAdd, Name: "a.txt", Sents: doc.Sentences},
		{Seq: 2, Kind: KindTombstone, Name: "a.txt"},
		{Seq: 3, Kind: KindAdd, Name: "empty.txt"},
	} {
		f.Add(encodeRecord(&rec))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeRecord(payload)
		if err != nil {
			return
		}
		again, err := decodeRecord(encodeRecord(rec))
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v\npayload: %q", err, payload)
		}
		if !reflect.DeepEqual(again, rec) {
			t.Fatalf("round trip changed the record\npayload: %q\nonce:  %+v\ntwice: %+v", payload, rec, again)
		}
	})
}
