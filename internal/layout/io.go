package layout

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/golitho/hsd/internal/geom"
)

// The GLT (Go Layout Text) format is a line-oriented interchange format:
//
//	GLT 1
//	LAYOUT <name>
//	RECT <x0> <y0> <x1> <y1>
//	...
//	END
//
// Blank lines and lines starting with '#' are ignored. Coordinates are
// integer database units. It deliberately mirrors the subset of GDSII
// needed for single-layer hotspot benchmarks.

const formatHeader = "GLT 1"

// Write serializes l in GLT format.
func Write(w io.Writer, l *Layout) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%s\nLAYOUT %s\n", formatHeader, sanitizeName(l.Name)); err != nil {
		return fmt.Errorf("layout: write header: %w", err)
	}
	for _, r := range l.shapes {
		if _, err := fmt.Fprintf(bw, "RECT %d %d %d %d\n", r.Min.X, r.Min.Y, r.Max.X, r.Max.Y); err != nil {
			return fmt.Errorf("layout: write rect: %w", err)
		}
	}
	if _, err := fmt.Fprintln(bw, "END"); err != nil {
		return fmt.Errorf("layout: write footer: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("layout: flush: %w", err)
	}
	return nil
}

// Read parses a GLT stream into a layout.
func Read(r io.Reader) (*Layout, error) {
	sc := bufio.NewScanner(r)
	// The buffer starts at the scanner's default size and grows only for
	// long lines: a served clip is a few hundred bytes.
	sc.Buffer(nil, 16*1024*1024)
	lineNo := 0
	next := func() (string, bool) {
		for sc.Scan() {
			lineNo++
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			return line, true
		}
		return "", false
	}

	// scanErr surfaces the underlying reader error (e.g. a body-size
	// limit) which would otherwise masquerade as a truncated file.
	scanErr := func() error {
		if err := sc.Err(); err != nil {
			return fmt.Errorf("layout: scan: %w", err)
		}
		return nil
	}

	line, ok := next()
	if !ok || line != formatHeader {
		if err := scanErr(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("layout: line %d: missing %q header", lineNo, formatHeader)
	}
	line, ok = next()
	if !ok || !strings.HasPrefix(line, "LAYOUT ") {
		if err := scanErr(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("layout: line %d: missing LAYOUT record", lineNo)
	}
	l := New(strings.TrimSpace(strings.TrimPrefix(line, "LAYOUT ")))

	for {
		line, ok = next()
		if !ok {
			if err := scanErr(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("layout: line %d: unexpected EOF before END", lineNo)
		}
		if line == "END" {
			break
		}
		fields := strings.Fields(line)
		if len(fields) != 5 || fields[0] != "RECT" {
			return nil, fmt.Errorf("layout: line %d: malformed record %q", lineNo, line)
		}
		var coords [4]int
		for i, f := range fields[1:] {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("layout: line %d: bad coordinate %q: %w", lineNo, f, err)
			}
			coords[i] = v
		}
		if err := l.AddRect(geom.R(coords[0], coords[1], coords[2], coords[3])); err != nil {
			return nil, fmt.Errorf("layout: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("layout: scan: %w", err)
	}
	return l, nil
}

func sanitizeName(s string) string {
	s = strings.TrimSpace(s)
	if s == "" {
		return "unnamed"
	}
	return strings.Map(func(r rune) rune {
		if r == '\n' || r == '\r' {
			return '_'
		}
		return r
	}, s)
}
