package koko

import (
	"reflect"
	"sync"
	"testing"
)

// TestBatchForms: a batch of tuples and a batch of their JSON answer Len,
// Tuples and AppendJSON alike; a forwarded batch decodes once, and callers
// on several goroutines share that one decode.
func TestBatchForms(t *testing.T) {
	ts := []Tuple{
		{SentenceID: 3, Document: 1, Values: []string{"Cafe Vita", `{"sentence_id":9`}, Scores: map[string]float64{"sentence_id": 0.5}},
		{SentenceID: 4, Document: 1, Values: []string{}},
		{SentenceID: 8, Document: 2},
	}
	arr, err := AppendTuples(nil, ts)
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := BatchOfJSON(arr)
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string]Batch{"local": BatchOf(ts), "forwarded": fwd} {
		if b.Len() != len(ts) {
			t.Errorf("%s: Len %d, want %d", name, b.Len(), len(ts))
		}
		if got, err := b.AppendJSON([]byte("x")); err != nil || string(got) != "x"+string(arr) {
			t.Errorf("%s: AppendJSON = %q, %v; want x%s", name, got, err, arr)
		}
		if got, err := b.Tuples(); err != nil || !reflect.DeepEqual(got, ts) {
			t.Errorf("%s: Tuples = %+v, %v; want %+v", name, got, err, ts)
		}
	}
	var wg sync.WaitGroup
	firsts := make([]*Tuple, 8)
	for i := range firsts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := fwd.Tuples(); err == nil && len(got) > 0 {
				firsts[i] = &got[0]
			}
		}()
	}
	wg.Wait()
	for i, p := range firsts {
		if p == nil || p != firsts[0] {
			t.Fatalf("goroutine %d got tuple %p, goroutine 0 %p; want one shared decode", i, p, firsts[0])
		}
	}
	for _, bad := range []string{"", "[]", "[1]", `{"sentence_id":1}`, `[{"sentence_id":1`} {
		if _, err := BatchOfJSON([]byte(bad)); err == nil {
			t.Errorf("BatchOfJSON(%q) accepted", bad)
		}
	}
	// Well framed, but not canonical: refused when decoded.
	b, err := BatchOfJSON([]byte(`[{"sentence_id":1,"document":0,"values":null,"scores":{}}]`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Tuples(); err == nil {
		t.Error("a batch with empty scores decoded")
	}
}
