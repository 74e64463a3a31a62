// Package framelog is the repo's one durable-record library: the frame
// every on-disk format shares, the one payload codec inside it
// (codec.go), the Meta-bound append-only log behind the scan journal and
// the learn WAL, the single-frame File behind the network and suite
// files, and the atomic file writer behind
// every whole-file save. DESIGN.md "On-disk formats" lists the formats
// built on it.
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
	"reflect"
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

// PayloadAppender is a record type's hand-written encoder: AppendPayload
// appends to b exactly the bytes the codec writes for the value
// (codec.go), without reflection. The codec stays the definition of the
// format and decodes every payload; a type with a hand encoder holds the
// two equal with a test of its own.
type PayloadAppender interface {
	AppendPayload(b []byte) []byte
}

// appendFrame appends to dst the frame carrying *v's encoding under
// magic: by *v's AppendPayload when *T has one, else by the codec. v is
// a pointer, so the dispatch boxes nothing. The length and CRC are
// reserved ahead of the payload, which is encoded in place and sealed
// after, so a frame is built in the buffer it is written from. On error
// dst comes back as it was.
func appendFrame[T any](dst []byte, magic string, v *T) ([]byte, error) {
	if err := walkType(reflect.TypeFor[T](), 0); err != nil {
		return dst, err
	}
	start := len(dst)
	dst = append(dst, magic...)
	head := len(dst)
	dst = append(dst, make([]byte, lenCRCLen)...)
	if a, ok := any(v).(PayloadAppender); ok {
		dst = a.AppendPayload(dst)
	} else {
		dst = appendValue(dst, reflect.ValueOf(v).Elem())
	}
	if err := sealFrame(dst[head:head+lenCRCLen], dst[head+lenCRCLen:]); err != nil {
		return dst[:start], err
	}
	return dst, nil
}

// sealFrame fills in header, the length and CRC reserved ahead of
// payload, or refuses a payload over MaxPayload.
func sealFrame(header, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("framelog: payload of %d bytes exceeds the %d-byte frame bound", len(payload), MaxPayload)
	}
	binary.BigEndian.PutUint64(header, uint64(len(payload)))
	binary.BigEndian.PutUint32(header[8:], crc32.ChecksumIEEE(payload))
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
