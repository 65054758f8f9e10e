package remote

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"

	"repro/koko"
)

// The shard-eval line framing. A worker answers with NDJSON lines. A tuple
// line is
//
//	{"tuples":<array>,"crc32c":N}
//
// where <array> is the batch exactly as koko.AppendTuples writes it — the
// form kokod's answers carry — and N is the CRC-32C (Castagnoli) of
// <array>'s bytes as sent. The coordinator checks the framing strictly,
// verifies N, and forwards <array> as a koko.Batch without decoding it: an
// answer copies the worker's bytes, and only a consumer that needs the
// tuples themselves decodes them. Done and error lines, written once per
// stream and embedding koko.Result, stay on encoding/json (HTML escaping
// off). Coordinator and workers must run one build: a tuple line of an
// older build (struct-form tuples under an FNV "checksum" key) is
// malformed here, and this build's lines are malformed to it, so a mixed
// pair fails the attempt instead of misreading it.

const (
	tuplesPrefix = `{"tuples":`
	crcKey       = `,"crc32c":`
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendChunkLine appends l's NDJSON line, newline included, to dst. A
// tuple line stamps the CRC-32C of its batch's bytes; done and error lines
// are what json.NewEncoder(w) with SetEscapeHTML(false) writes for l. A
// line with no batch, done or error, and a non-finite float in a local
// batch, are errors; dst then comes back unextended.
func AppendChunkLine(dst []byte, l *ChunkLine) ([]byte, error) {
	if l.Done != nil || l.Error != "" {
		return AppendJSON(dst, l)
	}
	if l.Tuples.Len() == 0 {
		return dst, errors.New("remote: a chunk line needs a tuple batch, a done line or an error")
	}
	start := len(dst)
	dst = append(dst, tuplesPrefix...)
	at := len(dst)
	dst, err := l.Tuples.AppendJSON(dst)
	if err != nil {
		return dst[:start], err
	}
	sum := crc32.Checksum(dst[at:], castagnoli)
	dst = strconv.AppendUint(append(dst, crcKey...), uint64(sum), 10)
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

// ParseChunkLine decodes one NDJSON line of a shard-eval response — with or
// without its terminating newline — into l, replacing its contents. A
// tuple line must be framed exactly as AppendChunkLine frames it, with no
// byte after its closing brace; its CRC-32C is verified (a mismatch wraps
// ErrCorruptPartial), and its array is copied into a batch of its own,
// counted but not decoded. Done and error lines go through encoding/json
// and must set exactly their one field.
func ParseChunkLine(line []byte, l *ChunkLine) error {
	*l = ChunkLine{}
	line = bytes.TrimSuffix(line, []byte{'\n'})
	if bytes.HasPrefix(line, []byte(`{"done":`)) || bytes.HasPrefix(line, []byte(`{"error":`)) {
		var v struct {
			ChunkLine
			Tuples json.RawMessage `json:"tuples"`
			CRC    json.RawMessage `json:"crc32c"`
		}
		if err := json.Unmarshal(line, &v); err != nil {
			return fmt.Errorf("remote: malformed chunk line: %w", err)
		}
		if v.Tuples != nil || v.CRC != nil || (v.Done == nil) == (v.Error == "") {
			return errors.New("remote: malformed chunk line: a done or error line sets another field")
		}
		*l = v.ChunkLine
		return nil
	}
	i := bytes.LastIndex(line, []byte(crcKey))
	if !bytes.HasPrefix(line, []byte(tuplesPrefix)) || i < len(tuplesPrefix) || line[len(line)-1] != '}' {
		return fmt.Errorf("remote: malformed chunk line: not a tuple line (%d bytes)", len(line))
	}
	arr := line[len(tuplesPrefix):i]
	stamped, ok := parseCRC(line[i+len(crcKey) : len(line)-1])
	if !ok {
		return errors.New("remote: malformed chunk line: bad crc32c")
	}
	if got := crc32.Checksum(arr, castagnoli); got != stamped {
		return fmt.Errorf("remote: chunk crc32c mismatch (got %d, stamped %d): %w", got, stamped, ErrCorruptPartial)
	}
	var err error
	if l.Tuples, err = koko.BatchOfJSON(bytes.Clone(arr)); err != nil {
		return fmt.Errorf("remote: malformed chunk line: %w", err)
	}
	return nil
}

// parseCRC reads a checksum in strconv's form: decimal digits, no sign, no
// leading zero, at most 2³²-1.
func parseCRC(b []byte) (uint32, bool) {
	if len(b) == 0 || len(b) > len("4294967295") || (b[0] == '0' && len(b) > 1) {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return uint32(n), n <= 1<<32-1
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
