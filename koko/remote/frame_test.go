package remote

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/koko"
)

// jsonLine is the reference encoding: the bytes json.Encoder writes for l,
// as workers wrote every line before the frame codec.
func jsonLine(l *ChunkLine) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(l)
	return buf.Bytes(), err
}

// clientTuple and clientEvidence are the client form of a tuple as kokod
// once rendered it: copied into these structs and encoded by encoding/json.
// They are the oracle for the encoder's ClientFields table.
type clientTuple struct {
	SentenceID int                `json:"sentence_id"`
	Document   int                `json:"document"`
	Values     []string           `json:"values"`
	Scores     map[string]float64 `json:"scores,omitempty"`
	Evidence   []clientEvidence   `json:"evidence,omitempty"`
}

type clientEvidence struct {
	Variable     string  `json:"variable"`
	Condition    string  `json:"condition"`
	Weight       float64 `json:"weight"`
	Confidence   float64 `json:"confidence"`
	Contribution float64 `json:"contribution"`
}

// checkClientForm asserts that AppendTuples in the client form writes
// exactly what encoding/json writes for ts copied into the client structs,
// or fails where it fails.
func checkClientForm(t *testing.T, ts []koko.Tuple) {
	t.Helper()
	old := make([]clientTuple, 0, len(ts))
	for _, tu := range ts {
		ct := clientTuple{SentenceID: tu.SentenceID, Document: tu.Document, Values: tu.Values, Scores: tu.Scores}
		for _, ev := range tu.Evidence {
			ct.Evidence = append(ct.Evidence, clientEvidence(ev))
		}
		old = append(old, ct)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	wantErr := enc.Encode(old)
	got, err := AppendTuples([]byte("prefix"), ts, ClientFields)
	switch {
	case (err != nil) != (wantErr != nil):
		t.Fatalf("client form: AppendTuples error %v, encoding/json error %v", err, wantErr)
	case !bytes.HasPrefix(got, []byte("prefix")):
		t.Fatalf("client form: AppendTuples lost dst's prefix: %q", got)
	case err == nil && string(got) != "prefix"+strings.TrimSuffix(buf.String(), "\n"):
		t.Fatalf("client form differs from encoding/json:\n got %q\nwant %q", got[len("prefix"):], buf.Bytes())
	}
}

// checkCodec asserts the codec's two contracts for l: AppendChunkLine
// writes exactly json.Encoder's bytes (or fails where it fails), and
// ParseChunkLine reads those bytes back to what json.Unmarshal reads. It
// also checks l's tuples in the client form.
func checkCodec(t *testing.T, l *ChunkLine) {
	t.Helper()
	checkClientForm(t, l.Tuples)
	want, wantErr := jsonLine(l)
	got, err := AppendChunkLine([]byte("prefix"), l)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("AppendChunkLine error %v, encoding/json error %v", err, wantErr)
	}
	if !bytes.HasPrefix(got, []byte("prefix")) {
		t.Fatalf("AppendChunkLine lost dst's prefix: %q", got)
	}
	got = got[len("prefix"):]
	if err != nil {
		if len(got) != 0 {
			t.Fatalf("AppendChunkLine failed but extended dst by %q", got)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendChunkLine bytes differ from encoding/json:\n got %q\nwant %q", got, want)
	}
	var parsed, viaJSON ChunkLine
	if err := ParseChunkLine(got, &parsed); err != nil {
		t.Fatalf("ParseChunkLine rejected the encoder's own line %q: %v", got, err)
	}
	if err := json.Unmarshal(got, &viaJSON); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed, viaJSON) {
		t.Fatalf("ParseChunkLine and json.Unmarshal disagree on %q:\n got %#v\nwant %#v", got, parsed, viaJSON)
	}
}

func TestChunkLineMatchesEncodingJSON(t *testing.T) {
	hostile := "q\"b\\s\b\f\n\r\t\x00\x1f\x7f <>& é 日本 \u2028\u2029 \xff\xfe end \ufffd"
	floats := []float64{0, math.Copysign(0, -1), 1, -2.5, 0.1, 1e-6, math.Nextafter(1e-6, 0), 1e-7, -1.5e-7,
		1e20, 1e21, math.Nextafter(1e21, 0), 1.2345e-300, 5e-324, math.MaxFloat64, -math.MaxFloat64, 123456789.125}
	var evidence []koko.Evidence
	scores := map[string]float64{}
	for i, f := range floats {
		evidence = append(evidence, koko.Evidence{Variable: "x", Condition: hostile, Weight: f, Confidence: -f, Contribution: f / 3})
		scores[fmt.Sprintf("k%02d", i)] = f
	}
	scores[hostile] = 0.5
	scores["\xff"] = 1 // \xff and \xfe both write as \ufffd: the keys collide on the wire
	scores["\xfe"] = 2
	cases := map[string]*ChunkLine{
		"empty":         {},
		"checksum only": {Checksum: 7},
		"max checksum":  {Tuples: []koko.Tuple{{}}, Checksum: math.MaxUint64},
		"zero checksum": {Tuples: []koko.Tuple{{SentenceID: 1, Values: []string{"a"}}}},
		"nil and empty": {Tuples: []koko.Tuple{
			{},
			{Values: []string{}, Scores: map[string]float64{}, Evidence: []koko.Evidence{}},
			{Values: []string{""}},
		}, Checksum: 3},
		"ints": {Tuples: []koko.Tuple{
			{SentenceID: math.MaxInt64, Document: math.MinInt64},
			{SentenceID: -1, Document: 0},
		}, Checksum: 1},
		"hostile strings": {Tuples: []koko.Tuple{{Values: []string{hostile, "", "\\", "\"", "\u2028"}}}, Checksum: 9},
		"floats":          {Tuples: []koko.Tuple{{Scores: scores, Evidence: evidence}}, Checksum: 10},
		"NaN score":       {Tuples: []koko.Tuple{{Scores: map[string]float64{"x": math.NaN()}}}},
		"Inf evidence":    {Tuples: []koko.Tuple{{Evidence: []koko.Evidence{{Weight: math.Inf(-1)}}}}},
		"done": {Done: &ChunkDone{
			Summary: &koko.Result{Candidates: 4, Matched: 2}, Tuples: 2, Generation: 3, Checksum: CountersChecksum(4, 2, 2),
		}},
		"error": {Error: "worker <failed> & \"quoted\""},
	}
	for name, l := range cases {
		t.Run(name, func(t *testing.T) { checkCodec(t, l) })
	}
}

// TestParseChunkLineRejectsNonCanonical: every line here is one
// encoding/json would accept, or close to it, but not one AppendChunkLine
// writes; each must be an error, never a fallback to encoding/json.
func TestParseChunkLineRejectsNonCanonical(t *testing.T) {
	tuple := `{"SentenceID":1,"Document":0,"Values":["a"],"Scores":null,"Evidence":null}`
	good := `{"tuples":[` + tuple + `],"checksum":5}`
	var l ChunkLine
	if err := ParseChunkLine([]byte(good+"\n"), &l); err != nil || len(l.Tuples) != 1 || l.Checksum != 5 {
		t.Fatalf("canonical line: %+v, %v", l, err)
	}
	with := func(old, new string) string { return strings.Replace(good, old, new, 1) }
	bad := map[string]string{
		"blank line":           "",
		"spaces":               `{ "tuples": [` + tuple + `], "checksum": 5 }`,
		"reordered keys":       `{"checksum":5,"tuples":[` + tuple + `]}`,
		"reordered tuple keys": with(`"SentenceID":1,"Document":0`, `"Document":0,"SentenceID":1`),
		"trailing bytes":       good + `{}`,
		"trailing space":       good + " ",
		"CRLF":                 good + "\r\n",
		"two newlines":         good + "\n\n",
		"cut mid-string":       good[:strings.Index(good, `"a"`)+2],
		"empty tuples":         `{"tuples":[],"checksum":5}`,
		"null tuples":          `{"tuples":null}`,
		"zero checksum":        with(`"checksum":5`, `"checksum":0`),
		"leading zero":         with(`"SentenceID":1`, `"SentenceID":01`),
		"minus zero id":        with(`"SentenceID":1`, `"SentenceID":-0`),
		"float id":             with(`"SentenceID":1`, `"SentenceID":1.0`),
		"int overflow":         with(`"SentenceID":1`, `"SentenceID":9223372036854775808`),
		"checksum overflow":    with(`"checksum":5`, `"checksum":18446744073709551616`),
		"unknown key":          with(`"Evidence":null}`, `"Evidence":null,"X":1}`),
		"missing key":          with(`,"Scores":null`, ``),
		"lowercase key":        with(`"Values"`, `"values"`),
		"uppercase hex":        with(`"a"`, `"\u001F"`),
		"needless escape":      with(`"a"`, `"\u0061"`),
		"solidus escape":       with(`"a"`, `"\/"`),
		"long escape for tab":  with(`"a"`, `"\u0009"`),
		"surrogate escape":     with(`"a"`, `"\ud83d\ude00"`),
		"raw control byte":     with(`"a"`, "\"\x01\""),
		"raw U+2028":           with(`"a"`, "\"\u2028\""),
		"raw invalid UTF-8":    with(`"a"`, "\"\xff\""),
		"float exponent form":  with(`"Scores":null`, `"Scores":{"x":5e-1}`),
		"float trailing zero":  with(`"Scores":null`, `"Scores":{"x":0.50}`),
		"float padded exp":     with(`"Scores":null`, `"Scores":{"x":1e-07}`),
		"float unsigned exp":   with(`"Scores":null`, `"Scores":{"x":1e21}`),
		"float overflow":       with(`"Scores":null`, `"Scores":{"x":1e999}`),
		"NaN":                  with(`"Scores":null`, `"Scores":{"x":NaN}`),
		"done with tuples":     `{"done":{"summary":null,"tuples":0,"generation":0,"checksum":0},"tuples":[` + tuple + `]}`,
		"done null":            `{"done":null}`,
		"empty error":          `{"error":""}`,
		"error with checksum":  `{"error":"x","checksum":5}`,
	}
	for name, line := range bad {
		t.Run(name, func(t *testing.T) {
			l := ChunkLine{Checksum: 99}
			if err := ParseChunkLine([]byte(line), &l); err == nil {
				t.Fatalf("accepted %q as %+v", line, l)
			}
			if !reflect.DeepEqual(l, ChunkLine{}) {
				t.Fatalf("a rejected line left %+v behind", l)
			}
		})
	}
}

// fuzzSource draws tuple fields from fuzz bytes; past the end it reads
// zeros.
type fuzzSource []byte

func (s *fuzzSource) byte() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

func (s *fuzzSource) uint64() uint64 {
	var b [8]byte
	n := copy(b[:], *s)
	*s = (*s)[n:]
	return binary.LittleEndian.Uint64(b[:])
}

// str returns up to 15 raw bytes: any byte value, so invalid UTF-8,
// control bytes, quotes and backslashes all reach the encoder.
func (s *fuzzSource) str() string {
	n := min(int(s.byte()%16), len(*s))
	v := string((*s)[:n])
	*s = (*s)[n:]
	return v
}

// float draws either a value at one of encoding/json's format boundaries or
// arbitrary bits (NaN and ±Inf included, which both encoders must refuse).
func (s *fuzzSource) float() float64 {
	edges := []float64{0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0),
		-1e-7, 5e-324, math.MaxFloat64, 0.1, 0.5, 1}
	if b := s.byte(); int(b) < len(edges) {
		return edges[b]
	}
	return math.Float64frombits(s.uint64())
}

// count returns -1 (a nil collection) or a length in [0, 3].
func (s *fuzzSource) count() int { return int(s.byte()%5) - 1 }

func (s *fuzzSource) chunkLine() *ChunkLine {
	l := &ChunkLine{}
	if s.byte()%4 != 0 {
		l.Checksum = s.uint64()
	}
	if n := s.count(); n >= 0 {
		l.Tuples = make([]koko.Tuple, n)
	}
	for i := range l.Tuples {
		t := &l.Tuples[i]
		t.SentenceID, t.Document = int(s.uint64()), int(int8(s.byte()))
		if n := s.count(); n >= 0 {
			t.Values = make([]string, n)
			for j := range t.Values {
				t.Values[j] = s.str()
			}
		}
		if n := s.count(); n >= 0 {
			t.Scores = make(map[string]float64, n)
			for j := 0; j < n; j++ {
				t.Scores[s.str()] = s.float()
			}
		}
		if n := s.count(); n >= 0 {
			t.Evidence = make([]koko.Evidence, n)
			for j := range t.Evidence {
				t.Evidence[j] = koko.Evidence{Variable: s.str(), Condition: s.str(), Weight: s.float(), Confidence: s.float(), Contribution: s.float()}
			}
		}
	}
	return l
}

// FuzzChunkLine checks the tuple encoder and the shard-eval frame codec on
// every input: ParseChunkLine never panics on any bytes; whatever it
// accepts, json.Unmarshal accepts too and decodes to a reflect.DeepEqual
// ChunkLine; and for a tuple batch drawn from the same bytes (any checksum,
// zero included; nil and empty collections; hostile strings; floats at the
// 'e'/'f' boundaries), AppendChunkLine writes exactly json.Encoder's bytes
// and they parse back, and the client form is exactly what encoding/json
// writes for the old client structs.
func FuzzChunkLine(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var parsed ChunkLine
		if err := ParseChunkLine(data, &parsed); err == nil {
			var viaJSON ChunkLine
			if err := json.Unmarshal(data, &viaJSON); err != nil {
				t.Fatalf("ParseChunkLine accepted %q, json.Unmarshal rejects it: %v", data, err)
			}
			if !reflect.DeepEqual(parsed, viaJSON) {
				t.Fatalf("ParseChunkLine and json.Unmarshal disagree on %q:\n got %#v\nwant %#v", data, parsed, viaJSON)
			}
		}
		src := fuzzSource(data)
		checkCodec(t, src.chunkLine())
	})
}

// batchLine is a tuple batch shaped like the scatter_gather extract class:
// n tuples of two values each, unscored.
func batchLine(n int) *ChunkLine {
	ts := make([]koko.Tuple, n)
	for i := range ts {
		ts[i] = koko.Tuple{SentenceID: 1000 + 7*i, Document: 40 + i/5, Values: []string{
			fmt.Sprintf("Cafe %d", i), fmt.Sprintf("serves espresso and pour-over %d", i),
		}}
	}
	return &ChunkLine{Tuples: ts, Checksum: TuplesChecksum(ts)}
}

var benchSink []byte

// BenchmarkChunkLine times one 64-tuple, two-value batch line through the
// frame codec and, for reference, through encoding/json.
func BenchmarkChunkLine(b *testing.B) {
	l := batchLine(64)
	line, err := AppendChunkLine(nil, l)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode/codec", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			if buf, err = AppendChunkLine(buf[:0], l); err != nil {
				b.Fatal(err)
			}
		}
		benchSink = buf
	})
	b.Run("encode/encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := enc.Encode(l); err != nil {
				b.Fatal(err)
			}
		}
		benchSink = buf.Bytes()
	})
	b.Run("decode/codec", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(line)))
		var out ChunkLine
		for i := 0; i < b.N; i++ {
			if err := ParseChunkLine(line, &out); err != nil || len(out.Tuples) != 64 {
				b.Fatal(len(out.Tuples), err)
			}
		}
	})
	b.Run("decode/encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(line)))
		for i := 0; i < b.N; i++ {
			var out ChunkLine
			if err := json.Unmarshal(line, &out); err != nil || len(out.Tuples) != 64 {
				b.Fatal(len(out.Tuples), err)
			}
		}
	})
}
