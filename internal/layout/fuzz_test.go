package layout

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/golitho/hsd/internal/geom"
)

// referenceRead is the GLT reader Read replaced, kept as the definition
// Read must match: each line is trimmed with strings.TrimSpace and split
// with strings.Fields, allocating a string and a slice per line.
func referenceRead(r io.Reader) (*Layout, error) {
	sc := bufio.NewScanner(r)
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

// FuzzParseGLT throws arbitrary bytes at the GLT reader. The parser must
// never panic and must agree with referenceRead: on accepting or
// rejecting, on the error text, and on the name and shapes accepted,
// which ReadShapes must return too. When it accepts an input, the layout
// must survive a Write/Read round trip unchanged.
func FuzzParseGLT(f *testing.F) {
	l := New("seed")
	for _, r := range []geom.Rect{
		geom.R(0, 0, 100, 50),
		geom.R(-30, -40, 10, 20),
		geom.R(1000, 1000, 1064, 1512),
	} {
		if err := l.AddRect(r); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, l); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("GLT 1\nLAYOUT x\nEND\n"))
	f.Add([]byte("GLT 1\nLAYOUT x\nRECT 0 0 1 1\n"))                 // truncated
	f.Add([]byte("GLT 1\n# comment\nLAYOUT x\nRECT a b c d\nEND\n")) // bad coords
	f.Add([]byte("GLT 1\nLAYOUT x\nRECT 5 5 5 9\nEND\n"))            // empty rect
	f.Add([]byte("GLT 1\nLAYOUT x\nRECT -2000000000 -2000000000 2000000000 2000000000\nEND\n"))
	f.Add([]byte("GLT 2\nLAYOUT x\nEND\n")) // wrong version
	f.Add([]byte(""))
	f.Add([]byte("\x00\xff\x00\xff"))
	// White space beyond ' ' that the reference accepts: every ASCII
	// separator, then the Unicode ones strings.Fields splits at (U+0085,
	// U+00A0); and a lone 0xA0 byte, invalid UTF-8, which it does not.
	f.Add([]byte("\tGLT 1\r\nLAYOUT x\v\nRECT\t0\v0\f10 10\r\n\fEND\n"))
	f.Add([]byte("GLT 1\nLAYOUT x\u0085\nRECT\u00850 0 10 10\u0085\nEND\n"))
	f.Add([]byte("\u00a0GLT 1\nLAYOUT  x\u00a0y \nRECT 0 0 10\u00a010\nEND\n"))
	f.Add([]byte("GLT 1\nLAYOUT x\nRECT 0 0 10\xa010\nEND\n"))
	f.Add([]byte("GLT 1\nLAYOUT x\nRECT 0 0 10 10 11\nEND\n"))                   // a fifth coordinate
	f.Add([]byte("GLT 1\nLAYOUT x\nRECT 0 0 10 10 # c\nEND\n"))                  // a trailing comment
	f.Add([]byte("GLT 1\nLAYOUT x\nRECT +1 -0 0010 9999999999999999999\nEND\n")) // signs, zeros, overflow
	f.Add([]byte("GLT 1\nLAYOUT x\nRECT 0 0 1000000000000000000 -1000000000000000000\nEND\n"))
	f.Add([]byte("GLT 1\nLAYOUT x\nRECT 0 0 1_0 0x10\nEND\n"))
	f.Add([]byte("GLT 1\nLAYOUT x\nRECT 0 0 99999999999999999999 1\nEND\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<18 {
			t.Skip("oversized input")
		}
		parsed, err := Read(bytes.NewReader(data))
		ref, refErr := referenceRead(bytes.NewReader(data))
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("Read: %v; reference: %v", err, refErr)
		}
		shapes, shapesErr := ReadShapes(data)
		if (shapesErr == nil) != (err == nil) || shapesErr != nil && shapesErr.Error() != err.Error() {
			t.Fatalf("ReadShapes: %v; Read: %v", shapesErr, err)
		}
		if err != nil {
			return
		}
		if parsed.Name != ref.Name || !slices.Equal(parsed.Shapes(), ref.Shapes()) || parsed.Bounds() != ref.Bounds() {
			t.Fatalf("Read: %q %v; reference: %q %v", parsed.Name, parsed.Shapes(), ref.Name, ref.Shapes())
		}
		if !slices.Equal(shapes, parsed.Shapes()) {
			t.Fatalf("ReadShapes: %v; Read: %v", shapes, parsed.Shapes())
		}
		var out bytes.Buffer
		if err := Write(&out, parsed); err != nil {
			t.Fatalf("rewrite of accepted input failed: %v", err)
		}
		again, err := Read(strings.NewReader(out.String()))
		if err != nil {
			t.Fatalf("reread of own output failed: %v", err)
		}
		if again.NumShapes() != parsed.NumShapes() {
			t.Fatalf("round trip changed shape count: %d -> %d", parsed.NumShapes(), again.NumShapes())
		}
		if again.Bounds() != parsed.Bounds() {
			t.Fatalf("round trip changed bounds: %v -> %v", parsed.Bounds(), again.Bounds())
		}
	})
}
