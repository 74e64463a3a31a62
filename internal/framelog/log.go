package framelog

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// Format names the two frame magics of one log file type: the header
// frame carries gob(M), every later frame gob(R).
type Format struct{ Header, Record string }

// ErrMetaMismatch is returned by Resume when the file's header Meta is
// not the caller's: the log belongs to a different run, and replaying
// its records into this one would be unsound.
var ErrMetaMismatch = errors.New("framelog: log belongs to a different run")

// Log is an open append-only log of R records. Records are appended and fsynced one at a time, so the file's crash
// mode is a torn tail, which Load detects and Resume truncates.
// Append is safe for concurrent use.
type Log[R any] struct {
	path   string
	record string
	tail   Tail
	mu     sync.Mutex
	f      *os.File
}

// Tail describes where a loaded log's intact prefix ends.
type Tail struct {
	// Offset is the byte length of the intact prefix.
	Offset int64
	// Discarded counts the bytes after Offset: the torn final frame,
	// or, after a mid-file corruption, every frame behind the bad one.
	Discarded int64
}

// Create creates (truncating) a log at path and durably writes its
// header frame: the file and its directory entry are fsynced before
// Create returns.
func Create[M comparable, R any](path string, format Format, meta M) (*Log[R], error) {
	payload, err := gobEncode(meta)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("framelog: create log: %w", err)
	}
	if err := WriteFrame(f, format.Header, payload); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("framelog: fsync %s: %w", path, err)
	}
	syncDir(path)
	return &Log[R]{path: path, record: format.Record, f: f}, nil
}

// Load reads the log at path without modifying it. A bad header frame
// is an error; a bad record frame ends the intact prefix, and Load
// returns the Meta, the records before it in append order, and the Tail.
func Load[M comparable, R any](path string, format Format) (M, []R, Tail, error) {
	var meta M
	f, err := os.Open(path)
	if err != nil {
		return meta, nil, Tail{}, fmt.Errorf("framelog: open log: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return meta, nil, Tail{}, fmt.Errorf("framelog: stat log: %w", err)
	}
	br := bufio.NewReader(f)

	payload, err := ReadFrame(br, format.Header)
	if err == nil {
		err = gobDecode(payload, &meta)
	}
	if err != nil {
		return meta, nil, Tail{}, fmt.Errorf("framelog: %s header: %w", path, err)
	}
	offset := frameLen(format.Header, payload)
	var records []R
	for {
		payload, err := ReadFrame(br, format.Record)
		if err != nil {
			break // clean EOF, or a bad frame: the intact prefix ends here
		}
		var rec R
		if err := gobDecode(payload, &rec); err != nil {
			break
		}
		records = append(records, rec)
		offset += frameLen(format.Record, payload)
	}
	return meta, records, Tail{Offset: offset, Discarded: st.Size() - offset}, nil
}

// Resume loads the log at path, refuses it unless its Meta equals meta,
// truncates everything after the intact prefix, and re-opens it for
// appending. It returns the intact records to replay; Tail reports what
// the truncation dropped.
func Resume[M comparable, R any](path string, format Format, meta M) (*Log[R], []R, error) {
	got, records, tail, err := Load[M, R](path, format)
	if err != nil {
		return nil, nil, err
	}
	if got != meta {
		return nil, nil, fmt.Errorf("%w: %s has %+v, want %+v", ErrMetaMismatch, path, got, meta)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("framelog: reopen log: %w", err)
	}
	if err := f.Truncate(tail.Offset); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("framelog: truncate %s at %d: %w", path, tail.Offset, err)
	}
	if _, err := f.Seek(tail.Offset, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("framelog: seek %s: %w", path, err)
	}
	return &Log[R]{path: path, record: format.Record, tail: tail, f: f}, records, nil
}

// Append durably records rec: the frame is written and fsynced before
// Append returns, so the record survives any later crash.
func (l *Log[R]) Append(rec R) error {
	payload, err := gobEncode(rec)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := WriteFrame(l.f, l.record, payload); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("framelog: fsync %s: %w", l.path, err)
	}
	return nil
}

// Tail reports what Resume truncated; zero for a log from Create.
func (l *Log[R]) Tail() Tail { return l.tail }

// Close closes the underlying file.
func (l *Log[R]) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("framelog: encode %T: %w", v, err)
	}
	return buf.Bytes(), nil
}

func gobDecode(payload []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("framelog: decode %T: %w", v, err)
	}
	return nil
}
