package hsd

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var updateSettings = flag.Bool("update-settings", false, "rewrite scripts/settings.golden from the tree")

const settingsGoldenPath = "scripts/settings.golden"

// TestSettingsGolden: every exported field of an exported *Config or
// *Options struct outside bench/ that no program file sets is listed in
// scripts/settings.golden with the reason it stays (a test seam, a
// suite-file field, a facade field). An unlisted field nothing sets fails
// this test until it is deleted, made a constant or listed; a listed
// field that a program now sets, or that is gone, fails it too. A
// deliberate change reruns it with -update-settings and commits the
// golden; lines that stay keep their reasons, and a new line has none
// until one is written beside it.
func TestSettingsGolden(t *testing.T) {
	unset, total, err := unsetSettings(".")
	if err != nil {
		t.Fatal(err)
	}
	header, listed, err := readGolden(settingsGoldenPath, *updateSettings)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d exported *Config/*Options fields, %d set by no program file", total, len(unset))
	if *updateSettings {
		if err := writeGolden(settingsGoldenPath, header, listed, unset); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d fields)", settingsGoldenPath, len(unset))
		return
	}
	isUnset := map[string]bool{}
	for _, name := range unset {
		isUnset[name] = true
		if _, ok := listed[name]; !ok {
			t.Errorf("%s: no program file sets it; delete it or make it a constant, or list it in %s with the reason it stays", name, settingsGoldenPath)
		}
	}
	for name := range listed {
		if !isUnset[name] {
			t.Errorf("%s is listed in %s, but a program file sets it or it is gone; drop its line", name, settingsGoldenPath)
		}
	}
}

// unsetSettings returns, sorted as "<dir>.<Type>.<Field>", the exported
// fields of exported *Config/*Options structs outside bench/ that no
// non-test Go file under root sets, and how many such fields there are.
//
// A keyed composite literal sets the fields it names on the struct its
// type resolves to, through imports and type aliases; an element literal
// whose type is elided takes its slice's or map's element type. A write
// through a selector (x.F = v, x.F++, &x.F) sets F on x's type when the
// parser can tell it: x a parameter, a receiver or a local declared with
// a type or a literal, or a field of one. Such a write inside the
// struct's own package is the package filling its defaults, so it does
// not count there. Whatever is not resolved counts as a setter of every
// field of its name, so the list can miss an unset field but never names
// a set one.
func unsetSettings(root string) (unset []string, total int, err error) {
	x := &settingsIndex{
		aliases: map[string]typeRef{},
		fields:  map[string]map[string]typeRef{},
		configs: map[string][]string{},
	}
	var files []*goFile
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (n == "testdata" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		af, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		f := newGoFile(filepath.ToSlash(dir), af)
		files = append(files, f)
		x.addTypes(f)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}

	set := map[string]bool{}        // "<dir>.<Type>.<Field>"
	byName := map[string][]string{} // field -> the dirs an unresolved write is in; "" anywhere
	write := func(f *goFile, locals map[string]string, sel *ast.SelectorExpr) {
		t := x.typeOf(f, locals, sel.X)
		if _, ok := x.fields[t][sel.Sel.Name]; !ok {
			byName[sel.Sel.Name] = append(byName[sel.Sel.Name], f.dir)
		} else if dirOf(t) != f.dir {
			set[t+"."+sel.Sel.Name] = true
		}
	}
	for _, f := range files {
		elided := map[*ast.CompositeLit]ast.Expr{} // element literal -> its type
		for _, decl := range f.ast.Decls {
			locals := map[string]string{}
			if fd, ok := decl.(*ast.FuncDecl); ok {
				locals = x.locals(f, fd)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					typ := n.Type
					if typ == nil {
						typ = elided[n]
					}
					if elt := elemType(typ); elt != nil {
						for _, el := range n.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok {
								el = kv.Value
							}
							if u, ok := el.(*ast.UnaryExpr); ok && u.Op == token.AND {
								el = u.X
							}
							if cl, ok := el.(*ast.CompositeLit); ok && cl.Type == nil {
								elided[cl] = elt
							}
						}
						return true
					}
					key := ""
					if typ != nil {
						if key = x.resolve(f, typ); key == "" {
							return true // another module's type, or a literal struct type
						}
					}
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok && key == "" {
								byName[id.Name] = append(byName[id.Name], "")
							} else if ok {
								set[key+"."+id.Name] = true
							}
						}
					}
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, lhs := range n.Lhs {
							if sel, ok := lhs.(*ast.SelectorExpr); ok {
								write(f, locals, sel)
							}
						}
					}
				case *ast.IncDecStmt:
					if sel, ok := n.X.(*ast.SelectorExpr); ok {
						write(f, locals, sel)
					}
				case *ast.UnaryExpr:
					if sel, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
						write(f, locals, sel)
					}
				}
				return true
			})
		}
	}

	for key, fields := range x.configs {
		for _, name := range fields {
			total++
			if set[key+"."+name] {
				continue
			}
			written := false
			for _, from := range byName[name] {
				written = written || from != dirOf(key)
			}
			if !written {
				unset = append(unset, key+"."+name)
			}
		}
	}
	sort.Strings(unset)
	return unset, total, nil
}

// goFile is one parsed non-test file: its directory ("hsd" for the
// root) and the directories of the module packages it imports, by the
// name it uses for them.
type goFile struct {
	dir     string
	imports map[string]string
	ast     *ast.File
}

func newGoFile(dir string, af *ast.File) *goFile {
	if dir == "." {
		dir = "hsd"
	}
	f := &goFile{dir: dir, imports: map[string]string{}, ast: af}
	for _, im := range af.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		d, ok := strings.CutPrefix(p, "github.com/golitho/hsd")
		if !ok {
			continue
		}
		if d = strings.TrimPrefix(d, "/"); d == "" {
			d = "hsd"
		}
		name := d[strings.LastIndex(d, "/")+1:]
		if im.Name != nil {
			name = im.Name.Name
		}
		f.imports[name] = d
	}
	return f
}

// typeRef is a type expression and the file it is written in.
type typeRef struct {
	f    *goFile
	expr ast.Expr
}

// settingsIndex is what unsetSettings knows of the module's types, each
// keyed "<dir>.<Name>".
type settingsIndex struct {
	aliases map[string]typeRef            // alias -> the type it names
	fields  map[string]map[string]typeRef // struct -> field -> its type
	configs map[string][]string           // *Config/*Options struct outside bench/ -> its exported fields
}

// addTypes indexes f's type declarations.
func (x *settingsIndex) addTypes(f *goFile) {
	for _, decl := range f.ast.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts := spec.(*ast.TypeSpec)
			key := f.dir + "." + ts.Name.Name
			if ts.Assign.IsValid() {
				x.aliases[key] = typeRef{f, ts.Type}
				continue
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				continue
			}
			fields := map[string]typeRef{}
			var exported []string
			for _, fl := range st.Fields.List {
				names := fl.Names
				if len(names) == 0 { // embedded: named by its type
					names = []*ast.Ident{ast.NewIdent(recvName(fl.Type))}
				}
				for _, id := range names {
					fields[id.Name] = typeRef{f, fl.Type}
					if id.IsExported() {
						exported = append(exported, id.Name)
					}
				}
			}
			x.fields[key] = fields
			name := ts.Name.Name
			if ast.IsExported(name) && (strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) &&
				f.dir != "bench" && !strings.HasPrefix(f.dir, "bench/") {
				x.configs[key] = exported
			}
		}
	}
}

// resolve names the type e (written in f) as "<dir>.<Name>", through
// pointers and aliases; "" when it is not a named type of this module.
func (x *settingsIndex) resolve(f *goFile, e ast.Expr) string {
	var key string
	switch e := e.(type) {
	case *ast.Ident:
		key = f.dir + "." + e.Name
	case *ast.SelectorExpr:
		pkg, ok := e.X.(*ast.Ident)
		if !ok || f.imports[pkg.Name] == "" {
			return ""
		}
		key = f.imports[pkg.Name] + "." + e.Sel.Name
	case *ast.StarExpr:
		return x.resolve(f, e.X)
	case *ast.ParenExpr:
		return x.resolve(f, e.X)
	default:
		return ""
	}
	if a, ok := x.aliases[key]; ok {
		return x.resolve(a.f, a.expr)
	}
	return key
}

// typeOf is the type of the value e, resolved as resolve does, given the
// types of the function's locals; "" when the parser cannot tell.
func (x *settingsIndex) typeOf(f *goFile, locals map[string]string, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return locals[e.Name]
	case *ast.ParenExpr:
		return x.typeOf(f, locals, e.X)
	case *ast.StarExpr:
		return x.typeOf(f, locals, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return x.typeOf(f, locals, e.X)
		}
	case *ast.CompositeLit:
		if e.Type != nil {
			return x.resolve(f, e.Type)
		}
	case *ast.SelectorExpr:
		if fl, ok := x.fields[x.typeOf(f, locals, e.X)][e.Sel.Name]; ok {
			return x.resolve(fl.f, fl.expr)
		}
	}
	return ""
}

// locals types the names fd declares: its receiver, parameters and
// results, those of the function literals in it, and its local
// variables. A name declared twice with different types is unresolved.
func (x *settingsIndex) locals(f *goFile, fd *ast.FuncDecl) map[string]string {
	m := map[string]string{}
	add := func(id *ast.Ident, t string) {
		if old, ok := m[id.Name]; ok && old != t {
			t = ""
		}
		m[id.Name] = t
	}
	fields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, id := range field.Names {
				add(id, x.resolve(f, field.Type))
			}
		}
	}
	fields(fd.Recv)
	fields(fd.Type.Params)
	fields(fd.Type.Results)
	if fd.Body == nil {
		return m
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			fields(n.Type.Params)
			fields(n.Type.Results)
		case *ast.ValueSpec:
			for i, id := range n.Names {
				t := ""
				if n.Type != nil {
					t = x.resolve(f, n.Type)
				} else if len(n.Values) == len(n.Names) {
					t = x.typeOf(f, m, n.Values[i])
				}
				add(id, t)
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						t := ""
						if len(n.Rhs) == len(n.Lhs) {
							t = x.typeOf(f, m, n.Rhs[i])
						}
						add(id, t)
					}
				}
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if id, ok := e.(*ast.Ident); ok && n.Tok == token.DEFINE {
					add(id, "")
				}
			}
		}
		return true
	})
	return m
}

// elemType is the element type of a slice, array or map type; nil for
// any other.
func elemType(e ast.Expr) ast.Expr {
	var elt ast.Expr
	switch e := e.(type) {
	case *ast.ArrayType:
		elt = e.Elt
	case *ast.MapType:
		elt = e.Value
	default:
		return nil
	}
	if star, ok := elt.(*ast.StarExpr); ok {
		return star.X
	}
	return elt
}

// dirOf is the directory part of a "<dir>.<Name>" key.
func dirOf(key string) string { return key[:strings.LastIndex(key, ".")] }

// TestUnsetSettingsRules runs unsetSettings on a small tree that writes
// each kind of setter once, so each rule is pinned: a literal through an
// alias, an elided element literal, a write through a typed local or a
// field of one, a write whose target the parser cannot type, and a
// package filling its own defaults, which sets nothing.
func TestUnsetSettingsRules(t *testing.T) {
	root := t.TempDir()
	for path, src := range map[string]string{
		"hsd.go": `package hsd

import "github.com/golitho/hsd/internal/p"

type Alias = p.Config
`,
		"internal/p/p.go": `package p

type Config struct{ ByAlias, ByElided, ByLocal, ByField, ByName, Defaulted, Unset int }

type Options struct{ Cfg Config }

type notConfig struct{ Unset int }

func (c *Config) fill() {
	if c.Defaulted == 0 {
		c.Defaulted = 1
	}
}
`,
		"cmd/x/main.go": `package main

import (
	hsd "github.com/golitho/hsd"
	"github.com/golitho/hsd/internal/p"
)

func main() {
	_ = hsd.Alias{ByAlias: 1}
	_ = []p.Config{{ByElided: 1}}
	var c p.Config
	c.ByLocal = 1
	o := &p.Options{}
	o.Cfg.ByField++
	unknown().ByName = 1
}
`,
		"bench/b.go": `package bench

type BenchConfig struct{ Unset int }
`,
	} {
		path = filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	unset, total, err := unsetSettings(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/p.Config.Defaulted", "internal/p.Config.Unset", "internal/p.Options.Cfg"}
	if total != 8 || !slices.Equal(unset, want) {
		t.Fatalf("unsetSettings = %v of %d fields, want %v of 8", unset, total, want)
	}
}
