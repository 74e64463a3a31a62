package layout

import (
	"testing"

	"github.com/golitho/hsd/internal/geom"
)

// arrayCell is one 1024 nm cell of wires and vias, 12 rectangles.
var arrayCell = []geom.Rect{
	geom.R(0, 40, 1024, 104), geom.R(0, 296, 1024, 360), geom.R(0, 552, 1024, 616), geom.R(0, 808, 1024, 872),
	geom.R(120, 0, 184, 1024), geom.R(632, 0, 696, 1024),
	geom.R(248, 168, 312, 232), geom.R(760, 424, 824, 488), geom.R(248, 680, 312, 744),
	geom.R(376, 424, 568, 488), geom.R(888, 168, 952, 744), geom.R(376, 936, 568, 1000),
}

// repeatedCells tiles arrayCell n x n times: the geometry of a memory
// array, where nearly every window of a full-chip scan is a cache hit
// and keying the window is what a hit costs.
func repeatedCells(b *testing.B, n int) *Layout {
	b.Helper()
	l := New("array")
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for _, r := range arrayCell {
				if err := l.AddRect(r.Translate(geom.Pt(i*1024, j*1024))); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	return l
}

// arrayWindow is the centre of the i-th window of a scan over the
// 30 x 30 interior of a 32 x 32 array at the scan's 1024 nm stride, off
// the cell grid so every window clips shapes at its edges.
func arrayWindow(i int) geom.Point {
	i %= 30 * 30
	return geom.Pt(1024+300+(i%30)*1024, 1024+700+(i/30)*1024)
}

// BenchmarkClipAtFingerprint keys a window the way a cache miss does:
// build the clip, then hash it.
func BenchmarkClipAtFingerprint(b *testing.B) {
	l := repeatedCells(b, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clip, err := l.ClipAt(arrayWindow(i), 1024, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		_ = clip.Fingerprint()
	}
}

// BenchmarkFingerprintAt keys a window the way a cache hit does:
// straight from the index, with no clip.
func BenchmarkFingerprintAt(b *testing.B) {
	l := repeatedCells(b, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := l.FingerprintAt(arrayWindow(i), 1024, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOneShotClip builds a layout of one cell and clips it once,
// the way a served request or a generated suite clip uses a layout:
// the single query pays for whatever indexing the layout does.
func BenchmarkOneShotClip(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := New("clip")
		for _, r := range arrayCell {
			if err := l.AddRect(r); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := l.ClipAt(geom.Pt(512, 512), 1024, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}
