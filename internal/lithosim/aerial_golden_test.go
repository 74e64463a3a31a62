package lithosim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"github.com/golitho/hsd/internal/raster"
)

// updateAerialGolden rewrites testdata/aerial_golden.json from the running
// code. The committed file was written by the seed's scalar blurSeparable
// (the commit before the blur moved onto the matmul kernel); regenerating
// it later defeats its purpose, which is to pin that loop's bits.
var updateAerialGolden = flag.Bool("update-aerial-golden", false, "rewrite the aerial golden (see comment)")

const aerialGoldenPath = "testdata/aerial_golden.json"

// imageDigest is the SHA-256 of an image's pixels as little-endian
// Float64bits, row-major.
func imageDigest(im *raster.Image) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range im.Pix {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAerialGolden holds every distinct-sigma aerial image of the 12
// seeded clips behind simulate_golden.json to the bits the scalar blur
// computed. Results only pin what survives the resist threshold; this
// pins the sums themselves, on whichever matmul kernel the build has.
func TestAerialGolden(t *testing.T) {
	s := newSim(t)
	corners := s.Config().Corners
	rng := rand.New(rand.NewSource(51))
	got := make([][]string, 12)
	for i := range got {
		clip := randomTestClip(t, rng)
		mask, err := raster.Rasterize(raster.Config{Window: clip.Window, PixelNM: s.Config().PixelNM}, clip.Shapes)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[float64]bool{}
		for ci, c := range corners {
			if seen[c.SigmaScale] {
				continue
			}
			seen[c.SigmaScale] = true
			aer, err := s.AerialImageAt(mask, ci)
			if err != nil {
				t.Fatal(err)
			}
			got[i] = append(got[i], imageDigest(aer))
		}
	}
	if *updateAerialGolden {
		b, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(aerialGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(aerialGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != 12 || len(want[0]) != 2 {
		t.Fatalf("golden has %d clips, %d sigmas for the first: the fixture is degenerate", len(want), len(want[0]))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("clip %d: aerial bits diverged from the scalar blur\n got %v\nwant %v", i, got[i], want[i])
		}
	}
}
