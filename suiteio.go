package hsd

import (
	"encoding/gob"
	"fmt"
	"io"

	"github.com/golitho/hsd/internal/framelog"
)

// suiteFileVersion guards the on-disk suite format.
const suiteFileVersion = 1

type suiteFile struct {
	Version int
	Suite   *Suite
}

// SaveSuite serializes a generated benchmark suite (gob encoding). Suites
// are deterministic in their seed, so this is a cache, not the source of
// truth — but a cached suite loads orders of magnitude faster than
// re-running the oracle.
func SaveSuite(w io.Writer, s *Suite) error {
	if err := gob.NewEncoder(w).Encode(suiteFile{Version: suiteFileVersion, Suite: s}); err != nil {
		return fmt.Errorf("hsd: encode suite: %w", err)
	}
	return nil
}

// SaveSuiteFile writes a suite to path crash-safely (temp file, fsync,
// atomic rename), so an interrupted save never leaves a torn cache
// behind.
func SaveSuiteFile(path string, s *Suite) error {
	return framelog.WriteFileAtomic(path, func(w io.Writer) error { return SaveSuite(w, s) })
}

// LoadSuite reads a suite saved with SaveSuite.
func LoadSuite(r io.Reader) (*Suite, error) {
	var f suiteFile
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("hsd: decode suite: %w", err)
	}
	if f.Version != suiteFileVersion {
		return nil, fmt.Errorf("hsd: unsupported suite file version %d", f.Version)
	}
	if f.Suite == nil {
		return nil, fmt.Errorf("hsd: suite file has no payload")
	}
	return f.Suite, nil
}
