package remote

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/koko"
)

// clientTuple and clientEvidence are the client form of a tuple as kokod
// once rendered it: copied into these structs and encoded by encoding/json.
// They are the oracle for the tuple codec.
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

func toClient(ts []koko.Tuple) []clientTuple {
	out := make([]clientTuple, 0, len(ts))
	for _, tu := range ts {
		ct := clientTuple{SentenceID: tu.SentenceID, Document: tu.Document, Values: tu.Values, Scores: tu.Scores}
		for _, ev := range tu.Evidence {
			ct.Evidence = append(ct.Evidence, clientEvidence(ev))
		}
		out = append(out, ct)
	}
	return out
}

func fromClient(cts []clientTuple) []koko.Tuple {
	out := make([]koko.Tuple, len(cts))
	for i, ct := range cts {
		out[i] = koko.Tuple{SentenceID: ct.SentenceID, Document: ct.Document, Values: ct.Values, Scores: ct.Scores}
		if ct.Evidence != nil {
			out[i].Evidence = make([]koko.Evidence, len(ct.Evidence))
			for j, ev := range ct.Evidence {
				out[i].Evidence[j] = koko.Evidence(ev)
			}
		}
	}
	return out
}

// oracleArray is what encoding/json writes for ts copied into the client
// structs, without the encoder's newline.
func oracleArray(ts []koko.Tuple) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(toClient(ts))
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), err
}

// frame wraps arr in a tuple line stamped with arr's CRC-32C.
func frame(arr []byte) []byte {
	return fmt.Appendf(nil, `{"tuples":%s,"crc32c":%d}`, arr, crc32.Checksum(arr, crc32.MakeTable(crc32.Castagnoli)))
}

// checkArray asserts the decoding contract for a tuple array the framing
// accepted as b: its bytes are forwarded as they arrived, and whatever the
// strict parser decodes, encoding/json decodes to the same tuples.
func checkArray(t *testing.T, arr []byte, b koko.Batch) {
	t.Helper()
	if got, err := b.AppendJSON([]byte("prefix")); err != nil || string(got) != "prefix"+string(arr) {
		t.Fatalf("a forwarded batch's AppendJSON = %q, %v; want its bytes %q", got, err, arr)
	}
	parsed, err := b.Tuples()
	if err != nil {
		return
	}
	var viaJSON []clientTuple
	if err := json.Unmarshal(arr, &viaJSON); err != nil {
		t.Fatalf("the tuple parser accepted %q, json.Unmarshal rejects it: %v", arr, err)
	}
	if want := fromClient(viaJSON); !reflect.DeepEqual(parsed, want) {
		t.Fatalf("the tuple parser and json.Unmarshal disagree on %q:\n got %#v\nwant %#v", arr, parsed, want)
	}
	if b.Len() != len(parsed) {
		t.Fatalf("batch counts %d tuples, decodes %d", b.Len(), len(parsed))
	}
}

// checkCodec asserts the codec's contracts for a batch of ts: AppendTuples
// writes exactly encoding/json's client form (or fails where it fails); the
// tuple-key scan cuts that array exactly where the encoder starts each
// tuple; AppendChunkLine frames it with its CRC-32C (an empty batch has no
// line); and ParseChunkLine takes the line back to a batch that forwards
// the same bytes and decodes to the same tuples.
func checkCodec(t *testing.T, ts []koko.Tuple) {
	t.Helper()
	want, wantErr := oracleArray(ts)
	arr, err := koko.AppendTuples([]byte("prefix"), ts)
	switch {
	case (err != nil) != (wantErr != nil):
		t.Fatalf("AppendTuples error %v, encoding/json error %v", err, wantErr)
	case !bytes.HasPrefix(arr, []byte("prefix")):
		t.Fatalf("AppendTuples lost dst's prefix: %q", arr)
	case err == nil && !bytes.Equal(arr[len("prefix"):], want):
		t.Fatalf("AppendTuples differs from encoding/json:\n got %q\nwant %q", arr[len("prefix"):], want)
	}
	line, lineErr := AppendChunkLine([]byte("prefix"), &ChunkLine{Tuples: koko.BatchOf(ts)})
	if (lineErr != nil) != (err != nil || len(ts) == 0) {
		t.Fatalf("AppendChunkLine error %v for %d tuples, encoder error %v", lineErr, len(ts), err)
	}
	if lineErr != nil {
		if string(line) != "prefix" {
			t.Fatalf("AppendChunkLine failed but extended dst to %q", line)
		}
		return
	}
	var objs [][]byte
	for o := range koko.TupleObjects(want) {
		objs = append(objs, o)
	}
	if len(objs) != len(ts) {
		t.Fatalf("the tuple-key scan cut %d tuples from %d", len(objs), len(ts))
	}
	for i := range ts {
		one, _ := koko.AppendTuple(nil, &ts[i])
		if !bytes.Equal(objs[i], one) {
			t.Fatalf("the tuple-key scan cut tuple %d as %q, the encoder wrote %q", i, objs[i], one)
		}
	}
	if wantLine := append(frame(want), '\n'); !bytes.Equal(line[len("prefix"):], wantLine) {
		t.Fatalf("AppendChunkLine bytes differ:\n got %q\nwant %q", line[len("prefix"):], wantLine)
	}
	var l ChunkLine
	if err := ParseChunkLine(line[len("prefix"):], &l); err != nil {
		t.Fatalf("ParseChunkLine rejected the encoder's own line %q: %v", line, err)
	}
	if _, err := l.Tuples.Tuples(); err != nil {
		t.Fatalf("the encoder's own batch does not decode: %v", err)
	}
	checkArray(t, want, l.Tuples)
}

// checkLine asserts that AppendChunkLine writes a done or error line as
// json.Encoder does, and ParseChunkLine reads it back as json.Unmarshal.
func checkLine(t *testing.T, l *ChunkLine) {
	t.Helper()
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(l); err != nil {
		t.Fatal(err)
	}
	got, err := AppendChunkLine(nil, l)
	if err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("AppendChunkLine = %q, %v; want encoding/json's %q", got, err, want.Bytes())
	}
	var parsed, viaJSON ChunkLine
	if err := ParseChunkLine(got, &parsed); err != nil {
		t.Fatalf("ParseChunkLine rejected %q: %v", got, err)
	}
	if err := json.Unmarshal(got, &viaJSON); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed, viaJSON) {
		t.Fatalf("ParseChunkLine and json.Unmarshal disagree on %q:\n got %#v\nwant %#v", got, parsed, viaJSON)
	}
}

// TestChunkLineMatchesEncodingJSON: tuple lines carry exactly the client
// form encoding/json writes, under their CRC-32C; done and error lines are
// encoding/json's. The cases named after a checksum are the batches an
// earlier line format's checksum tests used.
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
	scores["sentence_id"] = 3 // a variable named like the tuple key
	batches := map[string][]koko.Tuple{
		"empty":         nil,
		"checksum only": {},
		"max checksum":  {{}},
		"zero checksum": {{SentenceID: 1, Values: []string{"a"}}},
		"nil and empty": {
			{},
			{Values: []string{}, Scores: map[string]float64{}, Evidence: []koko.Evidence{}},
			{Values: []string{""}},
		},
		"ints": {
			{SentenceID: math.MaxInt64, Document: math.MinInt64},
			{SentenceID: -1, Document: 0},
		},
		"hostile strings": {{Values: []string{hostile, "", "\\", "\"", "\u2028", `{"sentence_id":1`, `,{"sentence_id":`}}},
		"floats":          {{Scores: scores, Evidence: evidence}, {SentenceID: 2, Scores: map[string]float64{"sentence_id": 1}}},
		"NaN score":       {{Scores: map[string]float64{"x": math.NaN()}}},
		"Inf evidence":    {{Evidence: []koko.Evidence{{Weight: math.Inf(-1)}}}},
	}
	for name, ts := range batches {
		t.Run(name, func(t *testing.T) { checkCodec(t, ts) })
	}
	lines := map[string]*ChunkLine{
		"done": {Done: &ChunkDone{
			Summary: &koko.Result{Candidates: 4, Matched: 2}, Tuples: 2, Generation: 3, Checksum: CountersChecksum(4, 2, 2),
		}},
		"error": {Error: "worker <failed> & \"quoted\""},
	}
	for name, l := range lines {
		t.Run(name, func(t *testing.T) { checkLine(t, l) })
	}
}

// TestParseChunkLineRejectsNonCanonical: every line here is one
// encoding/json would accept, or close to it, but not one AppendChunkLine
// writes. Each must be refused, never read through a fallback: by the
// framing (ParseChunkLine, which then leaves no line behind) or, for a
// well-framed array whose tuples are not canonical, when its batch is
// decoded.
func TestParseChunkLineRejectsNonCanonical(t *testing.T) {
	tuple := `{"sentence_id":1,"document":0,"values":["a"]}`
	arr := `[` + tuple + `]`
	good := string(frame([]byte(arr)))
	var l ChunkLine
	if err := ParseChunkLine([]byte(good+"\n"), &l); err != nil || l.Tuples.Len() != 1 {
		t.Fatalf("canonical line: %+v, %v", l, err)
	}
	sum := good[strings.LastIndex(good, `:`)+1 : len(good)-1]
	with := func(old, new string) string { return strings.Replace(good, old, new, 1) }
	// framed is the tuple array with one edit, framed under its own CRC.
	framed := func(old, new string) string { return string(frame([]byte(strings.Replace(arr, old, new, 1)))) }
	bad := map[string]string{
		"blank line":           "",
		"spaces":               `{ "tuples": ` + arr + `, "crc32c": ` + sum + ` }`,
		"reordered keys":       `{"crc32c":` + sum + `,"tuples":` + arr + `}`,
		"old build's line":     `{"tuples":[{"SentenceID":1,"Document":0,"Values":["a"],"Scores":null,"Evidence":null}],"checksum":5}`,
		"trailing bytes":       good + `{}`,
		"trailing space":       good + " ",
		"CRLF":                 good + "\r\n",
		"two newlines":         good + "\n\n",
		"cut mid-string":       good[:strings.Index(good, `"a"`)+2],
		"empty tuples":         string(frame([]byte(`[]`))),
		"null tuples":          `{"tuples":null}`,
		"zero checksum":        with(`"crc32c":`+sum, `"crc32c":0`),
		"leading zero crc":     with(`"crc32c":`, `"crc32c":0`),
		"checksum overflow":    with(`"crc32c":`+sum, `"crc32c":4294967296`),
		"reordered tuple keys": framed(`"sentence_id":1,"document":0`, `"document":0,"sentence_id":1`),
		"leading zero":         framed(`"sentence_id":1`, `"sentence_id":01`),
		"minus zero id":        framed(`"sentence_id":1`, `"sentence_id":-0`),
		"float id":             framed(`"sentence_id":1`, `"sentence_id":1.0`),
		"int overflow":         framed(`"document":0`, `"document":9223372036854775808`),
		"unknown key":          framed(`["a"]}`, `["a"],"x":1}`),
		"missing key":          framed(`,"document":0`, ``),
		"lowercase key":        framed(`"values"`, `"Values"`),
		"null scores":          framed(`["a"]}`, `["a"],"scores":null}`),
		"empty scores":         framed(`["a"]}`, `["a"],"scores":{}}`),
		"empty evidence":       framed(`["a"]}`, `["a"],"evidence":[]}`),
		"evidence before scores": framed(`["a"]}`,
			`["a"],"evidence":[{"variable":"x","condition":"c","weight":1,"confidence":1,"contribution":1}],"scores":{"x":1}}`),
		"uppercase hex":       framed(`"a"`, `"\u001F"`),
		"needless escape":     framed(`"a"`, `"\u0061"`),
		"solidus escape":      framed(`"a"`, `"\/"`),
		"long escape for tab": framed(`"a"`, `"\u0009"`),
		"surrogate escape":    framed(`"a"`, `"\ud83d\ude00"`),
		"raw control byte":    framed(`"a"`, "\"\x01\""),
		"raw U+2028":          framed(`"a"`, "\"\u2028\""),
		"raw invalid UTF-8":   framed(`"a"`, "\"\xff\""),
		"float exponent form": framed(`["a"]}`, `["a"],"scores":{"x":5e-1}}`),
		"float trailing zero": framed(`["a"]}`, `["a"],"scores":{"x":0.50}}`),
		"float padded exp":    framed(`["a"]}`, `["a"],"scores":{"x":1e-07}}`),
		"float unsigned exp":  framed(`["a"]}`, `["a"],"scores":{"x":1e21}}`),
		"float overflow":      framed(`["a"]}`, `["a"],"scores":{"x":1e999}}`),
		"NaN":                 framed(`["a"]}`, `["a"],"scores":{"x":NaN}}`),
		"done with tuples":    `{"done":{"summary":null,"tuples":0,"generation":0,"checksum":0},"tuples":` + arr + `}`,
		"done null":           `{"done":null}`,
		"empty error":         `{"error":""}`,
		"error with checksum": `{"error":"x","crc32c":5}`,
	}
	for name, line := range bad {
		t.Run(name, func(t *testing.T) {
			l := ChunkLine{Error: "left over"}
			err := ParseChunkLine([]byte(line), &l)
			if err != nil {
				if !reflect.DeepEqual(l, ChunkLine{}) {
					t.Fatalf("a rejected line left %+v behind", l)
				}
				return
			}
			if ts, err := l.Tuples.Tuples(); err == nil {
				t.Fatalf("accepted %q as %+v", line, ts)
			}
		})
	}
}

// TestCorruptLineIsCorruptPartial: a well-framed tuple line whose bytes
// changed under their CRC is ErrCorruptPartial, not a malformed line.
func TestCorruptLineIsCorruptPartial(t *testing.T) {
	line, err := AppendChunkLine(nil, &ChunkLine{Tuples: koko.BatchOf([]koko.Tuple{{SentenceID: 1, Values: []string{"Cafe Vita"}}})})
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(line, []byte("Vita"))
	line[i] ^= 1 // "Wita": still a canonical tuple
	var l ChunkLine
	if err := ParseChunkLine(line, &l); !errors.Is(err, ErrCorruptPartial) || l.Tuples.Len() != 0 {
		t.Fatalf("ParseChunkLine = %v with %d tuples, want ErrCorruptPartial and none", err, l.Tuples.Len())
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

// tupleKeyLookalikes are strings that spell the tuple key or its
// separator, as values and as score keys.
var tupleKeyLookalikes = []string{`{"sentence_id":`, `,{"sentence_id":1,`, "sentence_id", `"},{"sentence_id":`}

// str returns up to 15 raw bytes: any byte value, so invalid UTF-8,
// control bytes, quotes and backslashes all reach the encoder; a length
// byte of 16 or more modulo 32 draws a tuple-key lookalike instead.
func (s *fuzzSource) str() string {
	b := s.byte()
	if b%32 >= 16 {
		return tupleKeyLookalikes[int(b/32)%len(tupleKeyLookalikes)]
	}
	n := min(int(b%16), len(*s))
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

func (s *fuzzSource) tuples() []koko.Tuple {
	if s.byte()%4 != 0 { // a checksum an earlier line format stamped: drawn so committed inputs read as before
		s.uint64()
	}
	ts := make([]koko.Tuple, max(s.count(), 0))
	for i := range ts {
		t := &ts[i]
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
	return ts
}

// FuzzChunkLine checks the tuple codec and the shard-eval framing on every
// input. ParseChunkLine never panics on any bytes; a done or error line it
// accepts decodes as json.Unmarshal decodes it; a tuple line it accepts
// forwards its array's bytes unchanged, and whatever the strict tuple
// parser then decodes, json.Unmarshal decodes to the same tuples. The same
// holds for the input framed as a tuple array under its own CRC, which
// reaches the tuple parser with any bytes. And for a batch drawn from the
// same bytes (nil and empty collections; hostile strings and tuple-key
// lookalikes; floats at the 'e'/'f' boundaries), AppendTuples writes
// exactly encoding/json's client form, the tuple-key scan cuts it at the
// encoder's tuple starts, and its line parses back to the same bytes.
func FuzzChunkLine(f *testing.F) {
	seed, _ := AppendChunkLine(nil, &ChunkLine{Tuples: koko.BatchOf([]koko.Tuple{
		{SentenceID: 12, Document: 3, Values: []string{"Cafe Vita", `{"sentence_id":1`}, Scores: map[string]float64{"sentence_id": 0.5}},
	})})
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var parsed ChunkLine
		if err := ParseChunkLine(data, &parsed); err == nil {
			if parsed.Tuples.Len() > 0 {
				line := bytes.TrimSuffix(data, []byte("\n"))
				checkArray(t, line[len(tuplesPrefix):bytes.LastIndex(line, []byte(crcKey))], parsed.Tuples)
			} else {
				var viaJSON ChunkLine
				if err := json.Unmarshal(data, &viaJSON); err != nil {
					t.Fatalf("ParseChunkLine accepted %q, json.Unmarshal rejects it: %v", data, err)
				}
				if !reflect.DeepEqual(parsed, viaJSON) {
					t.Fatalf("ParseChunkLine and json.Unmarshal disagree on %q:\n got %#v\nwant %#v", data, parsed, viaJSON)
				}
			}
		}
		if err := ParseChunkLine(frame(data), &parsed); err == nil {
			checkArray(t, data, parsed.Tuples)
		}
		src := fuzzSource(data)
		checkCodec(t, src.tuples())
	})
}

// batchTuples is a tuple batch shaped like the scatter_gather extract
// class: n tuples of two values each, unscored.
func batchTuples(n int) []koko.Tuple {
	ts := make([]koko.Tuple, n)
	for i := range ts {
		ts[i] = koko.Tuple{SentenceID: 1000 + 7*i, Document: 40 + i/5, Values: []string{
			fmt.Sprintf("Cafe %d", i), fmt.Sprintf("serves espresso and pour-over %d", i),
		}}
	}
	return ts
}

var benchSink []byte

// BenchmarkChunkLine times one 64-tuple, two-value batch line: encoding it
// on a worker, framing and forwarding it on a coordinator (what an answer
// costs per line), and decoding its tuples, with encoding/json for
// reference.
func BenchmarkChunkLine(b *testing.B) {
	ts := batchTuples(64)
	l := &ChunkLine{Tuples: koko.BatchOf(ts)}
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
		cts := toClient(ts)
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := enc.Encode(cts); err != nil {
				b.Fatal(err)
			}
		}
		benchSink = buf.Bytes()
	})
	b.Run("forward/codec", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(line)))
		var out ChunkLine
		var buf []byte
		for i := 0; i < b.N; i++ {
			if err := ParseChunkLine(line, &out); err != nil || out.Tuples.Len() != 64 {
				b.Fatal(out.Tuples.Len(), err)
			}
			if buf, err = out.Tuples.AppendJSON(buf[:0]); err != nil {
				b.Fatal(err)
			}
		}
		benchSink = buf
	})
	b.Run("decode/codec", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(line)))
		var out ChunkLine
		for i := 0; i < b.N; i++ {
			if err := ParseChunkLine(line, &out); err != nil {
				b.Fatal(err)
			}
			if got, err := out.Tuples.Tuples(); err != nil || len(got) != 64 {
				b.Fatal(len(got), err)
			}
		}
	})
	b.Run("decode/encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(line)))
		for i := 0; i < b.N; i++ {
			var out struct {
				Tuples []clientTuple `json:"tuples"`
				CRC    uint32        `json:"crc32c"`
			}
			if err := json.Unmarshal(line, &out); err != nil || len(out.Tuples) != 64 {
				b.Fatal(len(out.Tuples), err)
			}
		}
	})
}
