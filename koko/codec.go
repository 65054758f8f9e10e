package koko

import (
	"bytes"
	"fmt"
	"iter"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The tuple codec: the one JSON form a tuple takes on every edge — kokod's
// answers, job results, and the shard-eval lines a worker sends its
// coordinator, which forwards them to the client without decoding. The
// bytes are exactly what encoding/json (HTML escaping off) writes for a
// tuple copied into a struct with snake_case keys, with empty scores and
// evidence left out. Encoding appends without reflection; parsing accepts
// only that canonical form (key order, spacing, escapes, number formats),
// so whatever it accepts, encoding/json decodes to the same tuples.

// tupleKey opens every tuple object. Raw quotes inside a string are always
// escaped, so it cannot occur within a value; it can occur as a score map
// opening on a variable named sentence_id, but that brace follows a colon.
// In an encoded array a tuple therefore starts exactly where the key
// occurs other than after a colon (tupleStart).
const tupleKey = `{"sentence_id":`

// AppendTuples appends ts as a JSON array of tuples. A non-finite float is
// an error, as it is for encoding/json; what dst then holds past its
// original length is unspecified.
func AppendTuples(dst []byte, ts []Tuple) ([]byte, error) {
	dst = append(dst, '[')
	for i := range ts {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = AppendTuple(dst, &ts[i]); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// AppendTuple appends t as a JSON object, failing as AppendTuples does.
func AppendTuple(dst []byte, t *Tuple) ([]byte, error) {
	dst = strconv.AppendInt(append(dst, tupleKey...), int64(t.SentenceID), 10)
	dst = strconv.AppendInt(append(dst, `,"document":`...), int64(t.Document), 10)
	dst = append(dst, `,"values":`...)
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
	if len(t.Scores) > 0 {
		// encoding/json sorts map keys by their raw bytes.
		var stack [8]string
		keys := stack[:0]
		for k := range t.Scores {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		dst = append(dst, `,"scores":{`...)
		for i, k := range keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(AppendString(dst, k), ':')
			if dst, err = appendFloat(dst, t.Scores[k]); err != nil {
				return dst, err
			}
		}
		dst = append(dst, '}')
	}
	if len(t.Evidence) > 0 {
		dst = append(dst, `,"evidence":[`...)
		for i := range t.Evidence {
			ev := &t.Evidence[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendString(append(dst, `{"variable":`...), ev.Variable)
			dst = AppendString(append(dst, `,"condition":`...), ev.Condition)
			for j, v := range [...]float64{ev.Weight, ev.Confidence, ev.Contribution} {
				dst = append(dst, evidenceFloatKeys[j]...)
				if dst, err = appendFloat(dst, v); err != nil {
					return dst, err
				}
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

var evidenceFloatKeys = [3]string{`,"weight":`, `,"confidence":`, `,"contribution":`}

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

// tupleStart returns the offset of the first tuple of arr, an array as
// AppendTuples writes it, that opens at or after offset i >= 1; -1 if none
// does. It looks only at opening braces, which a tuple has a few of.
func tupleStart(arr []byte, i int) int {
	for {
		j := bytes.IndexByte(arr[i:], '{')
		if j < 0 {
			return -1
		}
		if i += j; arr[i-1] != ':' && bytes.HasPrefix(arr[i:], []byte(tupleKey)) {
			return i
		}
		i++
	}
}

// TupleObjects yields each tuple object of arr, a non-empty array as
// AppendTuples writes it, cut at the tuple keys without decoding.
func TupleObjects(arr []byte) iter.Seq[[]byte] {
	return func(yield func([]byte) bool) {
		for i := 1; i > 0; {
			next := tupleStart(arr, i+1)
			end := next - 1 // the comma before the next tuple
			if next < 0 {
				end = len(arr) - 1 // the closing bracket
			}
			if !yield(arr[i:end]) {
				return
			}
			i = next
		}
	}
}

// parseTuples decodes arr, an array of n tuples in the canonical form
// AppendTuples writes; anything else, such as reordered keys, spaces,
// empty scores or trailing bytes, is an error. Unescaped strings are
// substrings of one string per array and the tuples' Values and Evidence
// are cut from one slice each, so a batch costs a few allocations, not a
// few per tuple (plus one map per scored tuple).
func parseTuples(arr []byte, n int) ([]Tuple, error) {
	p := tupleParser{s: string(arr)}
	tuples := make([]Tuple, 0, n)
	null, ok := p.seq("[", "]", func() bool {
		tuples = append(tuples, Tuple{})
		if !p.tuple(&tuples[len(tuples)-1]) {
			return false
		}
		if len(tuples) == 1 {
			p.reserve(n - 1)
		}
		return true
	})
	if null || !ok || len(tuples) == 0 || len(tuples) != n || p.i != len(p.s) {
		return nil, fmt.Errorf("koko: malformed tuple array at byte %d of %d", p.i, len(p.s))
	}
	return tuples, nil
}

// tupleParser walks one tuple array. vals and evs are the array's arenas:
// each tuple's Values and Evidence are capacity-capped windows of them.
type tupleParser struct {
	s    string
	i    int
	vals []string
	evs  []Evidence
}

// lit consumes x if the input continues with it.
func (p *tupleParser) lit(x string) bool {
	if strings.HasPrefix(p.s[p.i:], x) {
		p.i += len(x)
		return true
	}
	return false
}

// The shortest canonical Values element and Evidence element, separator
// included: what the remaining input bounds an arena's reservation by.
const (
	minValueBytes    = len(`"",`)
	minEvidenceBytes = len(`{"variable":"","condition":"","weight":0,"confidence":0,"contribution":0},`)
)

// reserve sizes the arenas for n more tuples shaped like the first one, so
// a batch of uniform tuples fills them without regrowing.
func (p *tupleParser) reserve(n int) {
	rest := len(p.s) - p.i
	if k := min(n*len(p.vals), rest/minValueBytes); k > 0 {
		p.vals = slices.Grow(p.vals, k)
	}
	if k := min(n*len(p.evs), rest/minEvidenceBytes); k > 0 {
		p.evs = slices.Grow(p.evs, k)
	}
}

func (p *tupleParser) tuple(t *Tuple) bool {
	var ok bool
	if !p.lit(tupleKey) {
		return false
	}
	if t.SentenceID, ok = p.int(); !ok || !p.lit(`,"document":`) {
		return false
	}
	if t.Document, ok = p.int(); !ok || !p.lit(`,"values":`) {
		return false
	}
	if t.Values, ok = p.values(); !ok {
		return false
	}
	// Scores and evidence are written only when non-empty.
	if p.lit(`,"scores":`) {
		if t.Scores, ok = p.scores(); !ok || len(t.Scores) == 0 {
			return false
		}
	}
	if p.lit(`,"evidence":`) {
		if t.Evidence, ok = p.evidence(); !ok || len(t.Evidence) == 0 {
			return false
		}
	}
	return p.lit("}")
}

// seq consumes null, or open, comma-separated items and close; null
// reports which.
func (p *tupleParser) seq(open, close string, item func() bool) (null, ok bool) {
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

func (p *tupleParser) values() ([]string, bool) {
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

// scores parses a score map; null is refused, since an empty map is left
// out. encoding/json sorts keys by their raw bytes, which invalid UTF-8
// (written as \ufffd) can reorder or collide, so key order is not checked;
// a repeated key keeps its last value, as in json.Unmarshal.
func (p *tupleParser) scores() (map[string]float64, bool) {
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
	return m, ok && !null
}

// evidence parses an evidence list; null is refused, since an empty list
// is left out.
func (p *tupleParser) evidence() ([]Evidence, bool) {
	start := len(p.evs)
	null, ok := p.seq("[", "]", func() bool {
		var ev Evidence
		var ok bool
		if !p.lit(`{"variable":`) {
			return false
		}
		if ev.Variable, ok = p.str(); !ok || !p.lit(`,"condition":`) {
			return false
		}
		if ev.Condition, ok = p.str(); !ok {
			return false
		}
		for j, f := range [...]*float64{&ev.Weight, &ev.Confidence, &ev.Contribution} {
			if !p.lit(evidenceFloatKeys[j]) {
				return false
			}
			if *f, ok = p.float(); !ok {
				return false
			}
		}
		p.evs = append(p.evs, ev)
		return p.lit("}")
	})
	if null || !ok {
		return nil, false
	}
	return p.evs[start:len(p.evs):len(p.evs)], true
}

// The number parsers accept a value only in the form encoding/json writes
// it: strconv's integers (no '+', no leading zero, no "-0") and
// appendFloat's floats.

func (p *tupleParser) int() (int, bool) {
	start := p.i
	p.lit("-")
	digits := p.i
	for p.i < len(p.s) && '0' <= p.s[p.i] && p.s[p.i] <= '9' {
		p.i++
	}
	tok := p.s[start:p.i]
	n, err := strconv.ParseInt(tok, 10, 0)
	return int(n), err == nil && p.i > digits && (p.s[digits] != '0' || tok == "0")
}

func (p *tupleParser) float() (float64, bool) {
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
// of the input. Raw control bytes, raw U+2028/U+2029 and invalid UTF-8 are
// rejected, since encoding/json always escapes them.
func (p *tupleParser) str() (string, bool) {
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
func (p *tupleParser) escape(b []byte) ([]byte, bool) {
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
