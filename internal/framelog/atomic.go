package framelog

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes a file crash-safely: write's bytes go to a
// temp file in path's directory, are fsynced, and are renamed over
// path. A crash mid-save leaves the previous file (or nothing), never
// a torn one.
func WriteFileAtomic(path string, write func(io.Writer) error) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("framelog: create temp file: %w", err)
	}
	name := tmp.Name()
	defer func() {
		if err != nil {
			tmp.Close() // a second Close after a failed rename is harmless
			os.Remove(name)
		}
	}()
	if err := write(tmp); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("framelog: fsync %s: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("framelog: close %s: %w", name, err)
	}
	if err := os.Rename(name, path); err != nil {
		return fmt.Errorf("framelog: rename into place: %w", err)
	}
	syncDir(path)
	return nil
}

// syncDir best-effort fsyncs the directory containing path so a just
// created or renamed file's directory entry is durable; not every
// filesystem supports directory fsync.
func syncDir(path string) {
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}
