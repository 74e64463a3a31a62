package layout

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

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
	var l *Layout
	err := parse(r, func(name []byte) { l = New(string(name)) }, func(s geom.Rect) { l.add(s) })
	if err != nil {
		return nil, err
	}
	return l, nil
}

// ReadShapes parses a GLT body as Read does and returns its shapes in
// file order, each canonical and non-empty, without building a Layout:
// for a layout read to be clipped once (see CutClip). The result is
// sized once, for a RECT record on every line of body that is long
// enough to hold one.
func ReadShapes(body []byte) ([]geom.Rect, error) {
	lines := bytes.Count(body, []byte{'\n'}) + 1
	shapes := make([]geom.Rect, 0, min(lines, len(body)/len("RECT 0 0 1 1")))
	err := parse(bytes.NewReader(body), func([]byte) {}, func(s geom.Rect) { shapes = append(shapes, s) })
	if err != nil {
		return nil, err
	}
	return shapes, nil
}

// parse reads a GLT stream, calling head with the LAYOUT record's name
// and then add with each RECT record, canonical and non-empty, in file
// order. Lines are parsed in the scanner's buffer, so a well-formed line
// allocates nothing; head's argument is only valid during the call.
func parse(r io.Reader, head func(name []byte), add func(geom.Rect)) error {
	sc := bufio.NewScanner(r)
	// The buffer starts at the scanner's default size and grows only for
	// long lines: a served clip is a few hundred bytes. Nothing parse
	// returns points into it, so it goes back to the pool.
	buf := scanBufs.Get().(*[scanBufSize]byte)
	defer scanBufs.Put(buf)
	sc.Buffer(buf[:], 16*1024*1024)
	lineNo := 0
	next := func() ([]byte, bool) {
		for sc.Scan() {
			lineNo++
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 || line[0] == '#' {
				continue
			}
			return line, true
		}
		return nil, false
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
	if !ok || string(line) != formatHeader {
		if err := scanErr(); err != nil {
			return err
		}
		return fmt.Errorf("layout: line %d: missing %q header", lineNo, formatHeader)
	}
	line, ok = next()
	if !ok || !bytes.HasPrefix(line, []byte("LAYOUT ")) {
		if err := scanErr(); err != nil {
			return err
		}
		return fmt.Errorf("layout: line %d: missing LAYOUT record", lineNo)
	}
	head(bytes.TrimSpace(line[len("LAYOUT "):]))

	for {
		line, ok = next()
		if !ok {
			if err := scanErr(); err != nil {
				return err
			}
			return fmt.Errorf("layout: line %d: unexpected EOF before END", lineNo)
		}
		if string(line) == "END" {
			break
		}
		var f [5][]byte
		if fields(line, &f) != len(f) || string(f[0]) != "RECT" {
			return fmt.Errorf("layout: line %d: malformed record %q", lineNo, line)
		}
		var coords [4]int
		for i, b := range f[1:] {
			v, ok := atoi(b)
			if !ok {
				var err error
				if v, err = strconv.Atoi(string(b)); err != nil {
					return fmt.Errorf("layout: line %d: bad coordinate %q: %w", lineNo, b, err)
				}
			}
			coords[i] = v
		}
		s, err := checkRect(geom.R(coords[0], coords[1], coords[2], coords[3]))
		if err != nil {
			return fmt.Errorf("layout: line %d: %w", lineNo, err)
		}
		add(s)
	}
	return scanErr()
}

// scanBufs holds parse's initial scanner buffers, of the size
// bufio.Scanner starts with.
const scanBufSize = 4096

var scanBufs = sync.Pool{New: func() any { return new([scanBufSize]byte) }}

// fields splits line at white space as strings.Fields does, into f, and
// returns how many fields line has, or len(f)+1 when it has more. ASCII
// bytes are classified by table; any other byte starts a UTF-8 rune that
// unicode.IsSpace classifies (an invalid one is not space).
func fields(line []byte, f *[5][]byte) int {
	n, start := 0, -1
	for i := 0; i < len(line); {
		c, w := line[i], 1
		space := c < utf8.RuneSelf && asciiSpace[c]
		if c >= utf8.RuneSelf {
			var r rune
			r, w = utf8.DecodeRune(line[i:])
			space = unicode.IsSpace(r)
		}
		switch {
		case space && start >= 0:
			f[n], n, start = line[start:i], n+1, -1
		case !space && start < 0:
			if n == len(f) {
				return n + 1
			}
			start = i
		}
		i += w
	}
	if start >= 0 {
		f[n], n = line[start:], n+1
	}
	return n
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// atoi is strconv.Atoi for a sign and up to maxDigits digits, which
// cannot overflow an int; it reports false for anything else, which the
// caller hands to strconv.Atoi for its value or its error.
func atoi(b []byte) (int, bool) {
	d := b
	if len(d) > 0 && (d[0] == '-' || d[0] == '+') {
		d = d[1:]
	}
	if len(d) == 0 || len(d) > maxDigits {
		return 0, false
	}
	v := 0
	for _, c := range d {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int(c-'0')
	}
	if b[0] == '-' {
		v = -v
	}
	return v, true
}

// maxDigits is the longest digit string atoi parses: 9 for a 32-bit
// int, 18 for a 64-bit one.
const maxDigits = 9 + 9*(strconv.IntSize/64)

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
