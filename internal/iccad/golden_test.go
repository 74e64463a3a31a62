package iccad

import (
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"flag"
	"os"
	"strings"
	"testing"
)

// updateSuiteGolden rewrites testdata/small_suite_seed1.sha256 from the
// running code. The committed digest was written at the commit before the
// oracle's blur moved onto the matmul kernel and labelling became a
// stream; regenerating it later defeats its purpose.
var updateSuiteGolden = flag.Bool("update-suite-golden", false, "rewrite the small-suite digest (see comment)")

const suiteGoldenPath = "testdata/small_suite_seed1.sha256"

// TestSmallSuiteGolden holds SmallSuiteConfig(1)'s benchmarks (every
// clip, label, family and PV band, in order) to a committed digest, at 1,
// 2 and 8 labelling workers and on whichever matmul kernel the build has.
func TestSmallSuiteGolden(t *testing.T) {
	digest := func(workers int) string {
		cfg := SmallSuiteConfig(1)
		cfg.Workers = workers
		suite, err := GenerateSuite(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if err := gob.NewEncoder(h).Encode(suite.Benchmarks); err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	if *updateSuiteGolden {
		if err := os.WriteFile(suiteGoldenPath, []byte(digest(1)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(suiteGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSpace(string(b))
	for _, workers := range []int{1, 2, 8} {
		if got := digest(workers); got != want {
			t.Errorf("at %d workers the small suite hashes to %s, want %s", workers, got, want)
		}
	}
}
