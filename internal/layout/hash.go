// Content-addressed clip fingerprinting.
//
// Real layouts are dominated by repeated standard-cell geometry, so the
// same clip contents recur across a full-chip scan at different
// absolute positions. Fingerprint canonicalizes a clip to a
// position-independent byte encoding and hashes it, giving scan caches
// a key under which translated copies of the same geometry collide on
// purpose — and nothing else collides in practice (128 bits of
// SHA-256).

package layout

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"

	"github.com/golitho/hsd/internal/geom"
)

// Fingerprint is a 128-bit content hash of a clip's canonical geometry.
// Two clips that differ only by translation share a fingerprint; clips
// with different window size, core geometry, or shapes do not (up to
// SHA-256 collisions, which no test corpus will produce).
type Fingerprint [16]byte

// String returns the fingerprint as lowercase hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// fingerprintMagic versions the canonical encoding; bump it if the
// encoding changes so persisted caches cannot mix schemes.
const fingerprintMagic = "HSDCFP1\n"

// Fingerprint returns the translation-invariant content hash of the
// clip: shapes are translated so Window.Min becomes the origin, sorted
// into a canonical order, and hashed together with the window extent
// and the core rectangle's window-relative position.
//
// The shape sort makes the hash independent of insertion order, so two
// clips extracted from layouts that drew the same geometry in different
// order still match.
func (c Clip) Fingerprint() Fingerprint {
	// Stack-backed for a typical clip; append moves a larger one to the
	// heap.
	var shapeBuf [64]geom.Rect
	var encBuf [len(fingerprintMagic) + 8 + 32*(2+len(shapeBuf))]byte
	d := geom.Pt(-c.Window.Min.X, -c.Window.Min.Y)
	shapes := shapeBuf[:0]
	for _, s := range c.Shapes {
		shapes = append(shapes, s.Translate(d))
	}
	slices.SortFunc(shapes, rectCompare)

	enc := append(encBuf[:0], fingerprintMagic...)
	enc = appendRect(enc, c.Window.Translate(d))
	enc = appendRect(enc, c.Core.Translate(d))
	enc = binary.LittleEndian.AppendUint64(enc, uint64(len(shapes)))
	for _, s := range shapes {
		enc = appendRect(enc, s)
	}
	sum := sha256.Sum256(enc)
	var out Fingerprint
	copy(out[:], sum[:])
	return out
}

// appendRect appends the canonical encoding of r: its four coordinates
// as little-endian int64.
func appendRect(b []byte, r geom.Rect) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(r.Min.X)))
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(r.Min.Y)))
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(r.Max.X)))
	return binary.LittleEndian.AppendUint64(b, uint64(int64(r.Max.Y)))
}

// rectCompare orders rectangles lexicographically by (MinY, MinX, MaxY,
// MaxX), the canonical shape order of the fingerprint encoding.
func rectCompare(a, b geom.Rect) int {
	if c := cmp.Compare(a.Min.Y, b.Min.Y); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Min.X, b.Min.X); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Max.Y, b.Max.Y); c != 0 {
		return c
	}
	return cmp.Compare(a.Max.X, b.Max.X)
}
