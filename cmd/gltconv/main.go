// Command gltconv converts layouts between the repository's GLT text
// format and the industry GDSII stream format, in either direction
// (chosen from the file extensions).
//
// Usage:
//
//	gltconv -in chip.glt -out chip.gds
//	gltconv -in design.gds -out design.glt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	hsd "github.com/golitho/hsd"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gltconv:", err)
		os.Exit(1)
	}
}

func run() error {
	in := flag.String("in", "", "input layout (.glt or .gds)")
	out := flag.String("out", "", "output layout (.glt or .gds)")
	flag.Parse()
	if *in == "" || *out == "" {
		return fmt.Errorf("both -in and -out are required")
	}
	// Both formats are settled from the names before anything is opened,
	// so a refused -out never truncates the file it names.
	var read func(io.Reader) (*hsd.Layout, error)
	switch {
	case isGDS(*in):
		read = hsd.ReadGDSII
	case strings.HasSuffix(*in, ".glt"):
		read = hsd.ReadLayout
	default:
		return fmt.Errorf("unknown input extension on %q (want .glt or .gds)", *in)
	}
	var write func(io.Writer, *hsd.Layout) error
	switch {
	case isGDS(*out):
		write = hsd.WriteGDSII
	case strings.HasSuffix(*out, ".glt"):
		write = hsd.WriteLayout
	default:
		return fmt.Errorf("unknown output extension on %q (want .glt or .gds)", *out)
	}

	src, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer src.Close()
	l, err := read(src)
	if err != nil {
		return fmt.Errorf("read %s: %w", *in, err)
	}

	dst, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer dst.Close()
	if err := write(dst, l); err != nil {
		return fmt.Errorf("write %s: %w", *out, err)
	}
	if err := dst.Close(); err != nil {
		return err
	}
	fmt.Printf("converted %s (%d shapes) -> %s\n", *in, l.NumShapes(), *out)
	return nil
}

func isGDS(name string) bool {
	return strings.HasSuffix(name, ".gds") || strings.HasSuffix(name, ".gdsii")
}
