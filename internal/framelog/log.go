package framelog

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// Format names the two frame magics of one log file type: the header
// frame carries the encoding of M (codec.go), every later frame that of
// R.
type Format struct{ Header, Record string }

// ErrMetaMismatch is returned by Resume when the file's header Meta is
// not the caller's: the log belongs to a different run, and replaying
// its records into this one would be unsound.
var ErrMetaMismatch = errors.New("framelog: log belongs to a different run")

// Log is an open append-only log of R records. An Append writes its
// records and makes them durable with one fsync, so the
// file's crash mode is a torn tail, which Load detects and Resume
// truncates. Append is safe for concurrent use.
type Log[R any] struct {
	path   string
	record string
	tail   Tail
	mu     sync.Mutex
	f      *os.File
	// end is the offset just past the last intact frame: where the next
	// frame goes, and where a failed append is cut back to.
	end int64
	// broken latches a failed append that could not be cut back; every
	// later Append refuses with it.
	broken error
	// frame is the buffer every record's frame is built in and written
	// from, one frame at a time. It grows to the largest frame the log
	// has written, a size set by the records alone, so what an Append
	// allocates does not depend on how records were grouped into Appends.
	frame []byte
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
	frame, err := appendFrame(nil, format.Header, &meta)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("framelog: create log: %w", err)
	}
	if _, err := f.Write(frame); err != nil {
		f.Close()
		return nil, fmt.Errorf("framelog: write frame: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("framelog: fsync %s: %w", path, err)
	}
	syncDir(path)
	return &Log[R]{path: path, record: format.Record, f: f, end: int64(len(frame))}, nil
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
		meta, err = unmarshal[M](payload)
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
		rec, err := unmarshal[R](payload)
		if err != nil {
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
	return &Log[R]{path: path, record: format.Record, tail: tail, f: f, end: tail.Offset}, records, nil
}

// Append durably records recs, all or nothing: each record's frame is
// built in the log's frame buffer and written at the end of the intact
// prefix, in append order, and the file is fsynced once, after the last
// write, before Append returns, so every record survives any later
// crash. A failed write or
// fsync is cut back off the file, so no record of the call survives it
// and a later Append is not stranded behind a torn frame; if the cut
// fails too, the log refuses every later Append. A first record the
// codec refuses writes nothing and is returned as is. An Append of no
// records does nothing.
func (l *Log[R]) Append(recs ...R) error {
	if len(recs) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return fmt.Errorf("framelog: %s refuses appends after a failed one: %w", l.path, l.broken)
	}
	at := l.end
	var err error
	for i := range recs {
		if l.frame, err = appendFrame(l.frame[:0], l.record, &recs[i]); err != nil {
			if at == l.end {
				return err
			}
			break
		}
		if _, err = l.f.WriteAt(l.frame, at); err != nil {
			err = fmt.Errorf("framelog: append to %s: %w", l.path, err)
			break
		}
		at += int64(len(l.frame))
	}
	if err == nil {
		if err = l.f.Sync(); err == nil {
			l.end = at
			return nil
		}
		err = fmt.Errorf("framelog: fsync %s: %w", l.path, err)
	}
	if terr := l.f.Truncate(l.end); terr != nil {
		l.broken = errors.Join(err, fmt.Errorf("framelog: truncate %s at %d: %w", l.path, l.end, terr))
		return l.broken
	}
	return err
}

// Tail reports what Resume truncated; zero for a log from Create.
func (l *Log[R]) Tail() Tail { return l.tail }

// Close closes the underlying file.
func (l *Log[R]) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// File is a single-frame file format: one frame opening with Magic and
// carrying the encoding of T (codec.go). The payload encoding is
// framelog's to choose; the caller keeps its own checks on the decoded
// value.
type File[T any] struct{ Magic string }

// Write emits v as one frame, in one Write.
func (f File[T]) Write(w io.Writer, v T) error {
	frame, err := appendFrame(nil, f.Magic, &v)
	if err != nil {
		return err
	}
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("framelog: write frame: %w", err)
	}
	return nil
}

// Read consumes one frame and decodes its payload. Input that ends
// before the frame does is ErrTorn, even when it is empty.
func (f File[T]) Read(r io.Reader) (T, error) {
	payload, err := ReadFrame(r, f.Magic)
	if err == io.EOF {
		err = fmt.Errorf("%w: empty input", ErrTorn)
	}
	if err != nil {
		var zero T
		return zero, err
	}
	return unmarshal[T](payload)
}

// Save writes v to path through WriteFileAtomic.
func (f File[T]) Save(path string, v T) error {
	return WriteFileAtomic(path, func(w io.Writer) error { return f.Write(w, v) })
}

// Load reads the file at path. A missing file's error wraps
// fs.ErrNotExist.
func (f File[T]) Load(path string) (T, error) {
	r, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, fmt.Errorf("framelog: %w", err)
	}
	defer r.Close()
	v, err := f.Read(r)
	if err != nil {
		return v, fmt.Errorf("framelog: load %s: %w", path, err)
	}
	return v, nil
}
