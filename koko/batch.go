package koko

import (
	"bytes"
	"errors"
	"sync"
)

// Batch is one run of output tuples, in document order, as a shard emits
// it and a TupleSeq yields it. A local shard's batch holds its tuples; a
// batch a worker sent holds the tuples' JSON exactly as the worker wrote
// it, decoded only when a consumer asks for the tuples. Consumers treat
// the two alike through Len, Tuples and AppendJSON, so an answer that only
// re-encodes tuples copies a forwarded batch's bytes instead of decoding
// and encoding them again. A Batch is immutable once emitted and may be
// retained.
type Batch struct {
	ts  []Tuple
	n   int
	enc *encodedBatch
}

// encodedBatch is a forwarded batch: its JSON and the tuples once decoded.
type encodedBatch struct {
	json []byte
	once sync.Once
	ts   []Tuple
	err  error
}

// BatchOf makes a batch of ts, which the batch takes over.
func BatchOf(ts []Tuple) Batch { return Batch{ts: ts, n: len(ts)} }

// BatchOfJSON makes a batch of arr, a non-empty tuple array in the form
// AppendTuples writes, without decoding it; the batch takes arr over. It
// fails unless arr opens with a tuple and closes the array. The tuples are
// counted by their keys and checked only when Tuples decodes them.
func BatchOfJSON(arr []byte) (Batch, error) {
	if !bytes.HasPrefix(arr, []byte("["+tupleKey)) || arr[len(arr)-1] != ']' {
		return Batch{}, errors.New("koko: a tuple batch's JSON is not a non-empty tuple array")
	}
	b := Batch{enc: &encodedBatch{json: arr}}
	for i := 1; i >= 0; i = tupleStart(arr, i+1) {
		b.n++
	}
	return b, nil
}

// Len reports how many tuples the batch holds.
func (b Batch) Len() int { return b.n }

// Tuples returns the batch's tuples, decoding a forwarded batch strictly on
// the first call. A local batch returns the slice it was made of; a
// forwarded batch's tuples are shared by every caller and must not be
// modified.
func (b Batch) Tuples() ([]Tuple, error) {
	e := b.enc
	if e == nil {
		return b.ts, nil
	}
	e.once.Do(func() { e.ts, e.err = parseTuples(e.json, b.n) })
	return e.ts, e.err
}

// AppendJSON appends the batch as a JSON tuple array: a forwarded batch's
// bytes as they arrived, or the tuples encoded by AppendTuples, failing as
// it does.
func (b Batch) AppendJSON(dst []byte) ([]byte, error) {
	if b.enc != nil {
		return append(dst, b.enc.json...), nil
	}
	return AppendTuples(dst, b.ts)
}
