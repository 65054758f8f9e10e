package remote

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/koko"
)

// The shard-eval frame codec. Both ends of the wire speak NDJSON exactly as
// encoding/json writes it (json.Encoder, SetEscapeHTML(false)), but tuple
// batches — nearly every byte of a shard-eval response — are encoded by
// appending (the tuple encoder, which also writes kokod's answers) and
// parsed by hand, without reflection. The bytes are unchanged:
// a node on either codec interoperates with a node on the other. Parsing is
// strict: a tuple line must be in the canonical form the encoder writes
// (key order, spacing, escapes, number formats), and anything else is a
// malformed line that fails the attempt. Done and error lines, written once
// per stream and embedding koko.Result, stay on encoding/json.

// AppendChunkLine appends l's NDJSON line, newline included, to dst: the
// bytes json.NewEncoder(w) with SetEscapeHTML(false) writes for l. A
// non-finite float in a tuple batch is an error, as it is for encoding/json;
// dst then comes back unextended.
func AppendChunkLine(dst []byte, l *ChunkLine) ([]byte, error) {
	if l.Done != nil || l.Error != "" {
		return AppendJSON(dst, l)
	}
	start := len(dst)
	dst = append(dst, '{')
	if len(l.Tuples) > 0 {
		var err error
		if dst, err = AppendTuples(append(dst, `"tuples":`...), l.Tuples, WireFields); err != nil {
			return dst[:start], err
		}
		if l.Checksum != 0 {
			dst = append(dst, ',')
		}
	}
	if l.Checksum != 0 {
		dst = append(dst, `"checksum":`...)
		dst = strconv.AppendUint(dst, l.Checksum, 10)
	}
	return append(dst, '}', '\n'), nil
}

// AppendJSON appends v's JSON and a newline to dst, as a json.Encoder with
// HTML escaping off writes them; on an error dst comes back unextended.
func AppendJSON(dst []byte, v any) ([]byte, error) {
	buf := bytes.NewBuffer(dst)
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// TupleFields is one edge's JSON form of a tuple. tuple and evidence hold,
// per field in order, the bytes before its value: the opening brace and
// first key, then a comma and each later key. omitEmpty leaves out empty
// scores and evidence; otherwise nil is null and empty is {} or [].
type TupleFields struct {
	tuple, evidence [5]string
	omitEmpty       bool
}

var (
	// WireFields is the shard-eval frame's form: koko.Tuple as encoding/json
	// writes the struct.
	WireFields = &TupleFields{
		tuple:    [5]string{`{"SentenceID":`, `,"Document":`, `,"Values":`, `,"Scores":`, `,"Evidence":`},
		evidence: [5]string{`{"Variable":`, `,"Condition":`, `,"Weight":`, `,"Confidence":`, `,"Contribution":`},
	}
	// ClientFields is the form of kokod's answers: snake_case keys, with
	// empty scores and evidence left out.
	ClientFields = &TupleFields{
		tuple:     [5]string{`{"sentence_id":`, `,"document":`, `,"values":`, `,"scores":`, `,"evidence":`},
		evidence:  [5]string{`{"variable":`, `,"condition":`, `,"weight":`, `,"confidence":`, `,"contribution":`},
		omitEmpty: true,
	}
)

// AppendTuples appends ts as a JSON array of tuples in f's form. A
// non-finite float is an error, as it is for encoding/json; what dst then
// holds past its original length is unspecified.
func AppendTuples(dst []byte, ts []koko.Tuple, f *TupleFields) ([]byte, error) {
	dst = append(dst, '[')
	for i := range ts {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = AppendTuple(dst, &ts[i], f); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// AppendTuple appends t as a JSON object in f's form, failing as
// AppendTuples does.
func AppendTuple(dst []byte, t *koko.Tuple, f *TupleFields) ([]byte, error) {
	dst = append(dst, f.tuple[0]...)
	dst = strconv.AppendInt(dst, int64(t.SentenceID), 10)
	dst = append(dst, f.tuple[1]...)
	dst = strconv.AppendInt(dst, int64(t.Document), 10)
	dst = append(dst, f.tuple[2]...)
	if t.Values == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, v := range t.Values {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendString(dst, v)
		}
		dst = append(dst, ']')
	}
	var err error
	if !f.omitEmpty || len(t.Scores) > 0 {
		dst = append(dst, f.tuple[3]...)
		if t.Scores == nil {
			dst = append(dst, "null"...)
		} else {
			// encoding/json sorts map keys by their raw bytes.
			var stack [8]string
			keys := stack[:0]
			for k := range t.Scores {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			dst = append(dst, '{')
			for i, k := range keys {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = AppendString(dst, k)
				dst = append(dst, ':')
				if dst, err = appendFloat(dst, t.Scores[k]); err != nil {
					return dst, err
				}
			}
			dst = append(dst, '}')
		}
	}
	if !f.omitEmpty || len(t.Evidence) > 0 {
		dst = append(dst, f.tuple[4]...)
		if t.Evidence == nil {
			dst = append(dst, "null"...)
		} else {
			dst = append(dst, '[')
			for i := range t.Evidence {
				ev := &t.Evidence[i]
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = append(dst, f.evidence[0]...)
				dst = AppendString(dst, ev.Variable)
				dst = append(dst, f.evidence[1]...)
				dst = AppendString(dst, ev.Condition)
				for j, v := range [...]float64{ev.Weight, ev.Confidence, ev.Contribution} {
					dst = append(dst, f.evidence[2+j]...)
					if dst, err = appendFloat(dst, v); err != nil {
						return dst, err
					}
				}
				dst = append(dst, '}')
			}
			dst = append(dst, ']')
		}
	}
	return append(dst, '}'), nil
}

// appendFloat writes f as encoding/json does: the shortest representation
// that round-trips, in 'e' form outside [1e-6, 1e21) with a one-digit
// negative exponent unpadded. A non-finite f is an error and leaves dst as
// it was.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// plainByte marks the bytes a JSON string carries as themselves: printable
// ASCII other than '"' and '\\'.
var plainByte = func() (t [256]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\'
	}
	return t
}()

// AppendString writes s as a JSON string with encoding/json's escapes
// (HTML escaping off): \" \\ \b \f \n \r \t, \u00XX for the other control
// bytes, \u2028 and \u2029, and \ufffd for each invalid UTF-8 byte.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if plainByte[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// ParseChunkLine decodes one NDJSON line of a shard-eval response — with or
// without its terminating newline — into l, replacing its contents. A tuple
// line is parsed by hand and only in the canonical form AppendChunkLine
// writes; anything else there, such as reordered keys, spaces or trailing
// bytes, is an error. Unescaped strings are substrings of one string per
// line and the tuples' Values are cut from one slice per line, so a batch
// costs a few allocations, not a few per tuple. Done and error lines go
// through encoding/json and must set exactly their one field. Whatever
// ParseChunkLine accepts, json.Unmarshal decodes to the same ChunkLine.
func ParseChunkLine(line []byte, l *ChunkLine) error {
	*l = ChunkLine{}
	line = bytes.TrimSuffix(line, []byte{'\n'})
	if bytes.HasPrefix(line, []byte(`{"done":`)) || bytes.HasPrefix(line, []byte(`{"error":`)) {
		if err := json.Unmarshal(line, l); err != nil {
			*l = ChunkLine{}
			return fmt.Errorf("remote: malformed chunk line: %w", err)
		}
		if l.Tuples != nil || l.Checksum != 0 || (l.Done == nil) == (l.Error == "") {
			*l = ChunkLine{}
			return fmt.Errorf("remote: malformed chunk line: a done or error line sets another field")
		}
		return nil
	}
	p := frameParser{s: string(line)}
	if err := p.chunkLine(l); err != nil {
		*l = ChunkLine{}
		return err
	}
	return nil
}

// frameParser walks one tuple line. vals and evs are the line's arenas:
// each tuple's Values and Evidence are capacity-capped windows of them.
type frameParser struct {
	s    string
	i    int
	vals []string
	evs  []koko.Evidence
}

func (p *frameParser) fail() error {
	return fmt.Errorf("remote: malformed chunk line at byte %d of %d", p.i, len(p.s))
}

// lit consumes x if the input continues with it.
func (p *frameParser) lit(x string) bool {
	if strings.HasPrefix(p.s[p.i:], x) {
		p.i += len(x)
		return true
	}
	return false
}

// tupleKey opens every canonical tuple object. A string's raw quotes are
// always escaped, so the text cannot occur inside one and counting it
// counts a canonical line's tuples.
const tupleKey = `{"SentenceID":`

// The shortest canonical Values element and Evidence element, separator
// included: what the remaining input bounds an arena's reservation by.
const (
	minValueBytes    = len(`"",`)
	minEvidenceBytes = len(`{"Variable":"","Condition":"","Weight":0,"Confidence":0,"Contribution":0},`)
)

func (p *frameParser) chunkLine(l *ChunkLine) error {
	if !p.lit("{") {
		return p.fail()
	}
	hasTuples := p.lit(`"tuples":`)
	if hasTuples {
		tuples := make([]koko.Tuple, 0, strings.Count(p.s, tupleKey))
		null, ok := p.seq("[", "]", func() bool {
			tuples = append(tuples, koko.Tuple{})
			if !p.tuple(&tuples[len(tuples)-1]) {
				return false
			}
			if len(tuples) == 1 {
				p.reserve(cap(tuples) - 1)
			}
			return true
		})
		if null || !ok || len(tuples) == 0 { // an empty batch is omitted
			return p.fail()
		}
		l.Tuples = tuples
	}
	if (hasTuples && p.lit(`,"checksum":`)) || (!hasTuples && p.lit(`"checksum":`)) {
		c, ok := p.uint()
		if !ok || c == 0 { // a zero checksum is omitted
			return p.fail()
		}
		l.Checksum = c
	}
	if !p.lit("}") || p.i != len(p.s) {
		return p.fail()
	}
	return nil
}

// reserve sizes the arenas for n more tuples shaped like the first one, so
// a batch of uniform tuples fills them without regrowing.
func (p *frameParser) reserve(n int) {
	rest := len(p.s) - p.i
	if k := min(n*len(p.vals), rest/minValueBytes); k > 0 {
		p.vals = slices.Grow(p.vals, k)
	}
	if k := min(n*len(p.evs), rest/minEvidenceBytes); k > 0 {
		p.evs = slices.Grow(p.evs, k)
	}
}

func (p *frameParser) tuple(t *koko.Tuple) bool {
	var ok bool
	if !p.lit(tupleKey) {
		return false
	}
	if t.SentenceID, ok = p.int(); !ok || !p.lit(`,"Document":`) {
		return false
	}
	if t.Document, ok = p.int(); !ok || !p.lit(`,"Values":`) {
		return false
	}
	if t.Values, ok = p.values(); !ok || !p.lit(`,"Scores":`) {
		return false
	}
	if t.Scores, ok = p.scores(); !ok || !p.lit(`,"Evidence":`) {
		return false
	}
	if t.Evidence, ok = p.evidence(); !ok {
		return false
	}
	return p.lit("}")
}

// seq consumes null, or open, comma-separated items and close; null
// reports which.
func (p *frameParser) seq(open, close string, item func() bool) (null, ok bool) {
	if p.lit("null") {
		return true, true
	}
	if !p.lit(open) {
		return false, false
	}
	if p.lit(close) {
		return false, true
	}
	for item() {
		if !p.lit(",") {
			return false, p.lit(close)
		}
	}
	return false, false
}

func (p *frameParser) values() ([]string, bool) {
	start := len(p.vals)
	null, ok := p.seq("[", "]", func() bool {
		v, ok := p.str()
		p.vals = append(p.vals, v)
		return ok
	})
	switch {
	case null || !ok:
		return nil, ok
	case len(p.vals) == start:
		return []string{}, true
	}
	return p.vals[start:len(p.vals):len(p.vals)], true
}

// scores parses a score map. encoding/json sorts keys by their raw bytes,
// which invalid UTF-8 (written as \ufffd) can reorder or collide, so key
// order is not checked; a repeated key keeps its last value, as in
// json.Unmarshal.
func (p *frameParser) scores() (map[string]float64, bool) {
	var m map[string]float64
	null, ok := p.seq("{", "}", func() bool {
		k, ok := p.str()
		if !ok || !p.lit(":") {
			return false
		}
		if m == nil {
			m = map[string]float64{}
		}
		m[k], ok = p.float()
		return ok
	})
	switch {
	case null || !ok:
		return nil, ok
	case m == nil:
		return map[string]float64{}, true
	}
	return m, true
}

func (p *frameParser) evidence() ([]koko.Evidence, bool) {
	start := len(p.evs)
	null, ok := p.seq("[", "]", func() bool {
		var ev koko.Evidence
		var ok bool
		if !p.lit(`{"Variable":`) {
			return false
		}
		if ev.Variable, ok = p.str(); !ok || !p.lit(`,"Condition":`) {
			return false
		}
		if ev.Condition, ok = p.str(); !ok || !p.lit(`,"Weight":`) {
			return false
		}
		if ev.Weight, ok = p.float(); !ok || !p.lit(`,"Confidence":`) {
			return false
		}
		if ev.Confidence, ok = p.float(); !ok || !p.lit(`,"Contribution":`) {
			return false
		}
		if ev.Contribution, ok = p.float(); !ok || !p.lit("}") {
			return false
		}
		p.evs = append(p.evs, ev)
		return true
	})
	switch {
	case null || !ok:
		return nil, ok
	case len(p.evs) == start:
		return []koko.Evidence{}, true
	}
	return p.evs[start:len(p.evs):len(p.evs)], true
}

// The number parsers accept a value only in the form encoding/json writes
// it: strconv's integers (no '+', no leading zero, no "-0") and
// appendFloat's floats.

// integer consumes an optional '-' and digits, and reports whether they
// are in strconv's form.
func (p *frameParser) integer() (string, bool) {
	start := p.i
	p.lit("-")
	digits := p.i
	for p.i < len(p.s) && '0' <= p.s[p.i] && p.s[p.i] <= '9' {
		p.i++
	}
	tok := p.s[start:p.i]
	return tok, p.i > digits && (p.s[digits] != '0' || tok == "0")
}

func (p *frameParser) int() (int, bool) {
	tok, ok := p.integer()
	n, err := strconv.ParseInt(tok, 10, 0)
	return int(n), ok && err == nil
}

// uint is integer without the sign, which strconv.ParseUint rejects.
func (p *frameParser) uint() (uint64, bool) {
	tok, ok := p.integer()
	n, err := strconv.ParseUint(tok, 10, 64)
	return n, ok && err == nil
}

func (p *frameParser) float() (float64, bool) {
	start := p.i
	for p.i < len(p.s) && strings.IndexByte("0123456789-+.eE", p.s[p.i]) >= 0 {
		p.i++
	}
	tok := p.s[start:p.i]
	f, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return 0, false
	}
	var buf [32]byte
	canon, err := appendFloat(buf[:0], f)
	return f, err == nil && string(canon) == tok
}

// str consumes a canonical JSON string. Without escapes it is a substring
// of the line. Raw control bytes, raw U+2028/U+2029 and invalid UTF-8 are
// rejected, since encoding/json always escapes them.
func (p *frameParser) str() (string, bool) {
	if !p.lit(`"`) {
		return "", false
	}
	var b []byte // the unescaped value, once an escape is seen
	start, mark := p.i, p.i
	for p.i < len(p.s) {
		switch c := p.s[p.i]; {
		case plainByte[c]:
			p.i++
		case c == '"':
			v := p.s[start:p.i]
			if b != nil {
				v = string(append(b, p.s[mark:p.i]...))
			}
			p.i++
			return v, true
		case c == '\\':
			var ok bool
			if b, ok = p.escape(append(b, p.s[mark:p.i]...)); !ok {
				return "", false
			}
			mark = p.i
		case c < utf8.RuneSelf:
			return "", false
		default:
			r, size := utf8.DecodeRuneInString(p.s[p.i:])
			if (r == utf8.RuneError && size == 1) || r == '\u2028' || r == '\u2029' {
				return "", false
			}
			p.i += size
		}
	}
	return "", false
}

// escape consumes the escape at p.i and appends what it stands for to b.
// Only the escapes encoding/json writes are accepted: \" \\ \b \f \n \r \t,
// \u00XX in lowercase for the other control bytes, and \u2028, \u2029 and
// \ufffd.
func (p *frameParser) escape(b []byte) ([]byte, bool) {
	if p.i+1 < len(p.s) {
		if k := strings.IndexByte(`"\bfnrt`, p.s[p.i+1]); k >= 0 {
			p.i += 2
			return append(b, "\"\\\b\f\n\r\t"[k]), true
		}
	}
	if !p.lit(`\u`) || p.i+4 > len(p.s) {
		return b, false
	}
	h := p.s[p.i : p.i+4]
	p.i += 4
	r, err := strconv.ParseUint(h, 16, 32)
	switch {
	case err != nil || strings.ToLower(h) != h:
		return b, false
	case r == 0x2028 || r == 0x2029 || r == 0xfffd:
		return utf8.AppendRune(b, rune(r)), true
	case r < 0x20 && strings.IndexByte("\b\t\n\f\r", byte(r)) < 0:
		return append(b, byte(r)), true
	}
	return b, false
}

// readLine reads the next line of an NDJSON stream, newline included,
// into buf[:0], so one buffer serves the whole stream. encoding/json never
// writes a raw newline inside a value, so a line ends at the first '\n'. A
// stream that ends inside a line is io.ErrUnexpectedEOF; one that ends
// between lines is io.EOF.
func readLine(br *bufio.Reader, buf []byte) ([]byte, error) {
	buf = buf[:0]
	for {
		frag, err := br.ReadSlice('\n')
		buf = append(buf, frag...)
		switch {
		case err == nil:
			return buf, nil
		case err == bufio.ErrBufferFull:
		case err == io.EOF && len(buf) > 0:
			return buf, io.ErrUnexpectedEOF
		default:
			return buf, err
		}
	}
}
