// Package wal implements the per-corpus write-ahead log behind durable
// mutable corpora: an append-only file of checksummed, length-prefixed
// records — one per ingested document or tombstone — that survives process
// crashes and is replayed into a fresh delta index on startup.
//
// File layout:
//
//	header   8-byte magic "KOKOWAL1" | uint64 firstSeq (LE)
//	record*  uint32 payloadLen (LE) | uint32 crc32(payload) (LE) | payload
//	payload  uint8 kind | uvarint seq | uvarint len(name) name | body
//
// Every record carries its own monotonically increasing sequence number, so
// a compaction can fold a prefix into the base shards and record the folded
// sequence in the store manifest; replay then skips records at or below it.
// A torn tail (partial write from a crash mid-append) is detected by the
// length/checksum framing and truncated away on open — everything before it
// replays intact.
package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"
)

// SyncPolicy controls when appended records are fsynced to stable storage.
// Records are always written to the OS (a single write syscall per append),
// so a process kill loses nothing under any policy — the policies differ
// only in what a whole-machine crash can lose.
type SyncPolicy int

const (
	// SyncNone never fsyncs on the append path (the OS flushes on its own
	// schedule). Fastest; a power loss can drop recent records.
	SyncNone SyncPolicy = iota
	// SyncBatch fsyncs from a background ticker (group commit): appends pay
	// no fsync, and at most one flush interval of records is exposed to a
	// power loss. The default.
	SyncBatch
	// SyncAlways fsyncs before every append returns. Durability per
	// document; the slowest policy.
	SyncAlways
)

// ParseSyncPolicy maps the flag spellings ("none", "batch", "always") to a
// policy; "" defaults to batch.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "none":
		return SyncNone, nil
	case "", "batch":
		return SyncBatch, nil
	case "always":
		return SyncAlways, nil
	}
	return SyncBatch, fmt.Errorf("wal: unknown sync policy %q (want none, batch, or always)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncNone:
		return "none"
	case SyncAlways:
		return "always"
	}
	return "batch"
}

// Kind discriminates record payloads.
type Kind uint8

const (
	// KindAdd records one ingested document: its name and parsed sentences.
	KindAdd Kind = 1
	// KindTombstone records a delete: every live document with the record's
	// name is masked from reads and dropped at the next compaction. An
	// update is a tombstone followed by an add in the same append batch.
	KindTombstone Kind = 2
)

var (
	magic = [8]byte{'K', 'O', 'K', 'O', 'W', 'A', 'L', '1'}
	// batchInterval is the group-commit period under SyncBatch.
	batchInterval = 25 * time.Millisecond
)

const (
	headerSize = 16
	// maxPayload rejects absurd record lengths when scanning — a corrupt
	// length prefix must not drive a multi-gigabyte allocation.
	maxPayload = 1 << 30
)

// Log is one corpus's write-ahead log. All methods are safe for concurrent
// use; appends within one call are atomic with respect to crash recovery
// (either every record of the batch replays or, on a torn tail, none after
// the tear).
type Log struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	policy  SyncPolicy
	seq     uint64 // last assigned sequence number
	size    int64
	appends uint64
	dirty   bool // written since last fsync (batch policy)
	closed  bool
	stop    chan struct{}
	done    chan struct{}
}

// Open opens (creating if absent) the log at path and replays every intact
// record through replay in append order. A torn or corrupt tail is
// truncated away before the log is positioned for appending. The caller's
// replay func filters already-compacted records by their Seq.
func Open(path string, policy SyncPolicy, replay func(*Record) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l := &Log{f: f, path: path, policy: policy}
	if err := l.recover(replay); err != nil {
		f.Close()
		return nil, err
	}
	if policy == SyncBatch {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.batchSyncer()
	}
	return l, nil
}

// recover validates the header (writing a fresh one into an empty file),
// replays intact records, and truncates any torn tail.
func (l *Log) recover(replay func(*Record) error) error {
	st, err := l.f.Stat()
	if err != nil {
		return fmt.Errorf("wal: stat %s: %w", l.path, err)
	}
	if st.Size() == 0 {
		var hdr [headerSize]byte
		copy(hdr[:8], magic[:])
		binary.LittleEndian.PutUint64(hdr[8:], 1)
		if _, err := l.f.Write(hdr[:]); err != nil {
			return fmt.Errorf("wal: init %s: %w", l.path, err)
		}
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: init %s: %w", l.path, err)
		}
		l.size = headerSize
		return nil
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	r := bufio.NewReader(l.f)
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil || string(hdr[:8]) != string(magic[:]) {
		return fmt.Errorf("wal: %s: bad header (not a KOKO wal)", l.path)
	}
	l.seq = binary.LittleEndian.Uint64(hdr[8:]) - 1
	good := int64(headerSize)
	for {
		rec, n, err := readRecord(r, st.Size()-good)
		if err != nil {
			break // torn or corrupt tail: keep the good prefix
		}
		if replay != nil {
			if err := replay(rec); err != nil {
				return fmt.Errorf("wal: %s: replay seq %d: %w", l.path, rec.Seq, err)
			}
		}
		l.seq = rec.Seq
		good += int64(n)
	}
	if good < st.Size() {
		if err := l.f.Truncate(good); err != nil {
			return fmt.Errorf("wal: %s: truncate torn tail: %w", l.path, err)
		}
		if err := l.f.Sync(); err != nil {
			return err
		}
	}
	if _, err := l.f.Seek(good, io.SeekStart); err != nil {
		return err
	}
	l.size = good
	return nil
}

// readRecord decodes one framed record from r, which holds left bytes before
// EOF, returning the record and its on-disk size. The checksum does not
// cover the length field, so a torn tail can declare any length: one that
// runs past EOF is rejected before anything is allocated.
func readRecord(r *bufio.Reader, left int64) (*Record, int, error) {
	var frame [8]byte
	if _, err := io.ReadFull(r, frame[:]); err != nil {
		return nil, 0, err
	}
	n := binary.LittleEndian.Uint32(frame[:4])
	sum := binary.LittleEndian.Uint32(frame[4:])
	if n == 0 || n > maxPayload || int64(n) > left-8 {
		return nil, 0, fmt.Errorf("wal: bad record length %d", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, 0, err
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, fmt.Errorf("wal: record checksum mismatch")
	}
	rec, err := decodeRecord(payload)
	if err != nil {
		return nil, 0, err
	}
	return rec, 8 + int(n), nil
}

// Append assigns consecutive sequence numbers to recs and writes them as
// one batch: a single write syscall, so crash recovery sees either all of
// the batch's intact records or a truncated tail — never an interleaving.
// Under SyncAlways the data is fsynced before return. Returns the last
// assigned sequence number.
func (l *Log) Append(recs ...Record) (uint64, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: %s: log closed", l.path)
	}
	var buf []byte
	seq := l.seq
	for i := range recs {
		seq++
		recs[i].Seq = seq
		buf = appendRecord(buf, &recs[i])
	}
	if _, err := l.f.Write(buf); err != nil {
		// A partial write leaves a torn tail; roll the file back so later
		// appends do not build on garbage (recovery would drop them all).
		_ = l.f.Truncate(l.size)
		_, _ = l.f.Seek(l.size, io.SeekStart)
		return 0, fmt.Errorf("wal: %s: append: %w", l.path, err)
	}
	l.size += int64(len(buf))
	l.seq = seq
	l.appends += uint64(len(recs))
	if l.policy == SyncAlways {
		if err := l.f.Sync(); err != nil {
			return 0, fmt.Errorf("wal: %s: sync: %w", l.path, err)
		}
	} else {
		l.dirty = true
	}
	return seq, nil
}

// appendRecord frames one record onto buf.
func appendRecord(buf []byte, rec *Record) []byte {
	payload := encodeRecord(rec)
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	buf = append(buf, frame[:]...)
	return append(buf, payload...)
}

// Sync flushes appended records to stable storage regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.closed || !l.dirty {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: %s: sync: %w", l.path, err)
	}
	l.dirty = false
	return nil
}

// batchSyncer is the group-commit loop under SyncBatch.
func (l *Log) batchSyncer() {
	defer close(l.done)
	t := time.NewTicker(batchInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			_ = l.Sync()
		}
	}
}

// TruncatePrefix removes every record with Seq <= applied — the prefix a
// compaction just folded into the persisted base — by rewriting the
// surviving suffix into a temp file and renaming it into place. A crash
// mid-truncate leaves either the old or the new file; both replay
// correctly because the manifest's applied sequence filters the prefix.
func (l *Log) TruncatePrefix(applied uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: %s: log closed", l.path)
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	// Re-scan the current file for the surviving suffix.
	if _, err := l.f.Seek(headerSize, io.SeekStart); err != nil {
		return err
	}
	r := bufio.NewReader(l.f)
	var keep []byte
	for off := int64(headerSize); ; {
		rec, n, err := readRecord(r, l.size-off)
		if err != nil {
			break
		}
		off += int64(n)
		if rec.Seq > applied {
			keep = appendRecord(keep, rec)
		}
	}
	tmp := l.path + ".tmp"
	var hdr [headerSize]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint64(hdr[8:], applied+1)
	if err := writeFileSync(tmp, append(hdr[:], keep...)); err != nil {
		return fmt.Errorf("wal: %s: truncate prefix: %w", l.path, err)
	}
	if err := os.Rename(tmp, l.path); err != nil {
		return fmt.Errorf("wal: %s: truncate prefix: %w", l.path, err)
	}
	f, err := os.OpenFile(l.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %s: reopen: %w", l.path, err)
	}
	l.f.Close()
	l.f = f
	l.size = int64(headerSize + len(keep))
	if _, err := l.f.Seek(l.size, io.SeekStart); err != nil {
		return err
	}
	if l.seq < applied {
		l.seq = applied
	}
	return nil
}

// writeFileSync writes data to path and fsyncs it before returning.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LastSeq returns the sequence number of the last appended record (0 when
// the log has never held one).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Size returns the log's current on-disk size in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Appends returns how many records this process appended (replayed records
// are not counted).
func (l *Log) Appends() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appends
}

// Close flushes, fsyncs, and closes the log. Further appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	stop := l.stop
	err := l.f.Sync()
	cerr := l.f.Close()
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-l.done
	}
	if err != nil {
		return err
	}
	return cerr
}
