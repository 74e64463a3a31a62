// Package framelog is the repo's one durable-record library: the frame
// codec every on-disk format shares, the Meta-bound append-only log
// behind the scan journal and the learn WAL, and the atomic file writer
// behind every whole-file save. DESIGN.md "On-disk formats" lists the
// formats built on it.
//
// A frame is
//
//	magic | payload length u64 BE | payload CRC32 (IEEE) u32 BE | payload
//
// so a reader tells a torn or bit-flipped record from a valid one
// before any payload decoder sees the bytes.
package framelog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// MaxPayload bounds a frame's payload, on write and on read.
const MaxPayload = 1 << 30

// lenCRCLen is the frame header after the magic: u64 length + u32 CRC.
const lenCRCLen = 8 + 4

// ReadFrame failures. A clean end of input before the first magic byte
// is io.EOF, not one of these.
var (
	// ErrTorn means the input ended inside the frame: the crash mode of
	// an append or a non-atomic write.
	ErrTorn = errors.New("framelog: torn frame")
	// ErrChecksum means the frame is complete but its payload does not
	// match its CRC32, or its declared length is over MaxPayload.
	ErrChecksum = errors.New("framelog: frame fails its checksum")
	// ErrBadMagic means the frame opens with a different magic.
	ErrBadMagic = errors.New("framelog: bad frame magic")
)

// frameLen is the on-disk size of a frame carrying payload under magic.
func frameLen(magic string, payload []byte) int64 {
	return int64(len(magic) + lenCRCLen + len(payload))
}

// WriteFrame emits one frame.
func WriteFrame(w io.Writer, magic string, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("framelog: payload of %d bytes exceeds the %d-byte frame bound", len(payload), MaxPayload)
	}
	header := make([]byte, len(magic)+lenCRCLen)
	copy(header, magic)
	binary.BigEndian.PutUint64(header[len(magic):], uint64(len(payload)))
	binary.BigEndian.PutUint32(header[len(magic)+8:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("framelog: write frame header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("framelog: write frame payload: %w", err)
	}
	return nil
}

// ReadFrame consumes one frame opening with magic and returns its
// verified payload. The payload buffer grows with the bytes actually
// read, so a corrupt length field cannot drive a large allocation.
func ReadFrame(r io.Reader, magic string) ([]byte, error) {
	header := make([]byte, len(magic)+lenCRCLen)
	n, err := io.ReadFull(r, header)
	if err == io.EOF {
		return nil, io.EOF
	}
	if m := min(n, len(magic)); string(header[:m]) != magic[:m] {
		return nil, fmt.Errorf("%w %q, want %q", ErrBadMagic, header[:m], magic)
	}
	if err == io.ErrUnexpectedEOF {
		return nil, fmt.Errorf("%w: %d of %d header bytes", ErrTorn, n, len(header))
	}
	if err != nil {
		return nil, fmt.Errorf("framelog: read frame header: %w", err)
	}
	size := binary.BigEndian.Uint64(header[len(magic):])
	wantCRC := binary.BigEndian.Uint32(header[len(magic)+8:])
	if size > MaxPayload {
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrChecksum, size)
	}
	// Small payloads (log records) get one exact allocation; larger ones
	// (models) double from 64 KiB as bytes arrive. The MinRead of slack
	// keeps Buffer.ReadFrom from growing just to see EOF.
	var buf bytes.Buffer
	buf.Grow(int(min(size, 64<<10)) + bytes.MinRead)
	if n, err := io.CopyN(&buf, r, int64(size)); err == io.EOF {
		return nil, fmt.Errorf("%w: %d of %d payload bytes", ErrTorn, n, size)
	} else if err != nil {
		return nil, fmt.Errorf("framelog: read frame payload: %w", err)
	}
	if got := crc32.ChecksumIEEE(buf.Bytes()); got != wantCRC {
		return nil, fmt.Errorf("%w: got %08x, want %08x", ErrChecksum, got, wantCRC)
	}
	return buf.Bytes(), nil
}
