package hsd

import (
	"fmt"
	"io"

	"github.com/golitho/hsd/internal/framelog"
)

type suiteFile struct {
	Suite Suite
}

// suiteFormat is the benchmark-suite cache (DESIGN.md "On-disk
// formats"). Suites are deterministic in their seed, so this is a cache,
// not the source of truth — but a cached suite loads orders of magnitude
// faster than re-running the oracle.
var suiteFormat = framelog.File[suiteFile]{Magic: "HSDSTv1\n"}

// SaveSuiteFile writes a suite to path crash-safely (temp file, fsync,
// atomic rename), so an interrupted save never leaves a torn cache
// behind.
func SaveSuiteFile(path string, s *Suite) error {
	return suiteFormat.Save(path, suiteFile{Suite: *s})
}

// LoadSuite reads a suite saved with SaveSuiteFile.
func LoadSuite(r io.Reader) (*Suite, error) {
	f, err := suiteFormat.Read(r)
	if err != nil {
		return nil, fmt.Errorf("hsd: suite file: %w", err)
	}
	return &f.Suite, nil
}
