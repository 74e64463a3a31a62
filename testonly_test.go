package hsd

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateTestOnly = flag.Bool("update-testonly", false, "rewrite scripts/testonly.golden from the tree")

const testOnlyGoldenPath = "scripts/testonly.golden"

// TestTestOnlyGolden: every function outside bench/ that no program file
// reaches is listed in scripts/testonly.golden with the reason it stays
// (a facade name, a bench pin, a test seam), or is reached only from one
// that is. A function that only tests call fails this test until it is
// deleted or listed; a listed function that the program reaches, or that
// is gone, fails it too. A deliberate change reruns it with
// -update-testonly and commits the golden; lines that stay keep their
// reasons, and a new line has none until one is written beside it.
func TestTestOnlyGolden(t *testing.T) {
	prog, err := parseProgram(".")
	if err != nil {
		t.Fatal(err)
	}
	header, listed, err := readGolden(testOnlyGoldenPath, *updateTestOnly)
	if err != nil {
		t.Fatal(err)
	}
	alone := map[string]bool{}
	for _, name := range prog.unreached(nil) {
		alone[name] = true
	}
	roots := map[string]bool{}
	for name := range listed {
		if alone[name] {
			roots[name] = true
		} else if !*updateTestOnly {
			t.Errorf("%s is listed in %s, but the program reaches it or it is gone; drop its line", name, testOnlyGoldenPath)
		}
	}
	unlisted := prog.unreached(roots)
	if *updateTestOnly {
		var names []string
		for name := range roots {
			names = append(names, name)
		}
		names = append(names, unlisted...)
		sort.Strings(names)
		if err := writeGolden(testOnlyGoldenPath, header, listed, names); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d functions)", testOnlyGoldenPath, len(names))
		return
	}
	for _, name := range unlisted {
		t.Errorf("%s: no program file reaches it; delete it, or list it in %s with the reason it stays", name, testOnlyGoldenPath)
	}
}

// readGolden reads a golden list: its leading "#" comment lines, and
// each other line keyed by its first field, the name it lists. A file
// that is not there reads as empty when it is about to be rewritten.
func readGolden(path string, update bool) (header []string, listed map[string]string, err error) {
	raw, err := os.ReadFile(path)
	if err != nil && !(update && os.IsNotExist(err)) {
		return nil, nil, err
	}
	listed = map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "#") {
			header = append(header, line)
		} else if f := strings.Fields(line); len(f) > 0 {
			listed[f[0]] = line
		}
	}
	return header, listed, nil
}

// writeGolden rewrites a golden list: header, then one line per name,
// keeping the listed line (and so its reason) of a name that stays.
func writeGolden(path string, header []string, listed map[string]string, names []string) error {
	out := header
	for _, name := range names {
		if line, ok := listed[name]; ok {
			out = append(out, line)
		} else {
			out = append(out, name)
		}
	}
	return os.WriteFile(path, []byte(strings.Join(out, "\n")+"\n"), 0o644)
}

// program is what unreached needs of the non-test Go files outside
// bench/ and testdata/: every function, and which names are mentioned
// where.
type program struct {
	funcs    []string         // "<dir>.[<receiver>.]<name>", as the golden lists them
	mentions [][]string       // per function, the mention keys in it
	byKey    map[string][]int // mention key -> the functions it names
	topLevel []string         // mention keys outside any function, and main and init
}

// parseProgram reads every non-test Go file under root outside bench/,
// testdata/ and hidden directories. A mention key is an identifier's
// name; an unexported name counts only inside its own directory, so its
// key carries the directory.
func parseProgram(root string) (*program, error) {
	p := &program{byKey: map[string][]int{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (n == "bench" || n == "testdata" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if dir == "." {
			dir = "hsd"
		}
		key := func(name string) string {
			if ast.IsExported(name) {
				return name
			}
			return dir + ":" + name
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				p.topLevel = append(p.topLevel, identsIn(d, nil, key)...)
				continue
			}
			name := dir + "."
			if fd.Recv != nil {
				name += recvName(fd.Recv.List[0].Type) + "."
			}
			k := key(fd.Name.Name)
			p.byKey[k] = append(p.byKey[k], len(p.funcs))
			p.funcs = append(p.funcs, name+fd.Name.Name)
			p.mentions = append(p.mentions, identsIn(fd, fd.Name, key))
			if fd.Recv == nil && (fd.Name.Name == "main" || fd.Name.Name == "init") {
				p.topLevel = append(p.topLevel, k)
			}
		}
		return nil
	})
	return p, err
}

// unreached returns, sorted, the functions that neither code outside any
// function nor the named roots reach. Reaching is by name, to a
// fixpoint: a reached function's body reaches every function of each
// name it mentions. Matching names and not types keeps the list short
// rather than exact: a method is reached when anything of its name is.
func (p *program) unreached(roots map[string]bool) []string {
	reached := make([]bool, len(p.funcs))
	var queue []string
	reach := func(i int) {
		if !reached[i] {
			reached[i] = true
			queue = append(queue, p.mentions[i]...)
		}
	}
	for i, name := range p.funcs {
		if roots[name] {
			reach(i)
		}
	}
	queue = append(queue, p.topLevel...)
	seen := map[string]bool{}
	for len(queue) > 0 {
		k := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if !seen[k] {
			seen[k] = true
			for _, i := range p.byKey[k] {
				reach(i)
			}
		}
	}
	var out []string
	for i, name := range p.funcs {
		if !reached[i] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// identsIn returns the mention key of every identifier in n but self.
func identsIn(n ast.Node, self *ast.Ident, key func(string) string) []string {
	var out []string
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id != self {
			out = append(out, key(id.Name))
		}
		return true
	})
	return out
}

// recvName is a method receiver's (or an embedded field's) type name,
// without pointer, package or type parameters.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
