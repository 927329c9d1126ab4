// Command unused fails when an exported identifier is referenced nowhere.
//
//	go run ./internal/unused . bench
//
// Each argument is the directory of a Go module. The command type-checks
// every package of those modules, non-test files first and in import
// order, then each package's test files, and prints one line for every
// exported func, type, const, var, method or struct field that is
// declared in non-test code of a non-main package and that no file of
// the modules, tests included, refers to. It does so once with the
// default build tags and once with the race tag, whose files
// (race_test.go) pair with !race ones and so cannot be checked beside
// them, and counts a use seen under either. It exits 1 when it prints
// any. Exempt are embedded fields, whose promoted members are their
// uses, and a method that lets its type, or a pointer to it, satisfy an
// interface declared in the modules or the standard library. A field
// set only by a literal without keys counts as unreferenced.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = []string{"."}
	}
	found, err := check(dirs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "unused:", err)
		os.Exit(2)
	}
	for _, f := range found {
		fmt.Println(f)
	}
	if len(found) > 0 {
		fmt.Fprintf(os.Stderr, "unused: %d exported identifiers are referenced nowhere; delete them, or unexport them if only their package's tests use them\n", len(found))
		os.Exit(1)
	}
}

// pkg is one module package: what `go list -json` says of it, and its
// parsed files.
type pkg struct {
	ImportPath, Dir, Name              string
	Standard                           bool
	GoFiles, TestGoFiles, XTestGoFiles []string
	files, testFiles, xtestFiles       []*ast.File
}

// tagSets are the build tags each pass lists the modules under.
var tagSets = []string{"", "race"}

// check returns one "file:line: pkg.Name" line per unreferenced export,
// its file relative to the working directory, sorted.
func check(dirs []string) ([]string, error) {
	fset := token.NewFileSet()
	l := &loader{
		fset:     fset,
		parsed:   map[string]*ast.File{},
		imported: map[string]bool{},
		std:      []string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"},
	}
	var passes [][]*pkg
	for _, tags := range tagSets {
		pkgs, err := l.list(dirs, tags)
		if err != nil {
			return nil, err
		}
		passes = append(passes, pkgs)
	}
	stdImp, err := stdImporter(fset, dirs[0], l.std)
	if err != nil {
		return nil, err
	}

	// Files are parsed once, so a declaration has one position in every
	// pass, and a use seen in any pass counts.
	used := map[token.Pos]bool{}
	decls := map[token.Pos]types.Object{}
	exempt := map[token.Pos]bool{}
	for _, pkgs := range passes {
		mod, objs, err := checkPass(fset, pkgs, stdImp, used)
		if err != nil {
			return nil, err
		}
		ifaces := interfaces(mod)
		for _, obj := range objs {
			decls[obj.Pos()] = obj
			if implementsSome(obj, ifaces) {
				exempt[obj.Pos()] = true
			}
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	var found []string
	for pos, obj := range decls {
		if used[pos] || exempt[pos] {
			continue
		}
		name := obj.Name()
		if recv := recvType(obj); recv != nil {
			name = recv.Obj().Name() + "." + name
		}
		at := fset.Position(pos)
		if rel, err := filepath.Rel(wd, at.Filename); err == nil {
			at.Filename = rel
		}
		found = append(found, fmt.Sprintf("%s:%d: %s.%s", at.Filename, at.Line, obj.Pkg().Name(), name))
	}
	sort.Strings(found)
	return found, nil
}

// loader lists module packages and parses each of their files once.
// std collects the go list arguments that locate the export data of
// every package the files import from outside the modules.
type loader struct {
	fset     *token.FileSet
	parsed   map[string]*ast.File
	imported map[string]bool
	std      []string
}

// list returns the modules' packages in import order, as go list sees
// them under tags, with their files parsed.
func (l *loader) list(dirs []string, tags string) ([]*pkg, error) {
	var pkgs []*pkg
	seen := map[string]bool{}
	for _, dir := range dirs {
		out, err := goCmd(dir, "list", "-tags", tags, "-deps", "-json", "./...")
		if err != nil {
			return nil, err
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			p := new(pkg)
			if err := dec.Decode(p); err != nil {
				return nil, err
			}
			if !p.Standard && !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				l.imported[p.ImportPath] = true
				pkgs = append(pkgs, p)
			}
		}
	}
	for _, p := range pkgs {
		var err1, err2, err3 error
		p.files, err1 = l.parse(p.Dir, p.GoFiles)
		p.testFiles, err2 = l.parse(p.Dir, p.TestGoFiles)
		p.xtestFiles, err3 = l.parse(p.Dir, p.XTestGoFiles)
		if err := errors.Join(err1, err2, err3); err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}

// parse returns the named files of dir, parsing those not yet parsed.
func (l *loader) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		path := filepath.Join(dir, name)
		f := l.parsed[path]
		if f == nil {
			var err error
			if f, err = parser.ParseFile(l.fset, path, nil, parser.SkipObjectResolution); err != nil {
				return nil, err
			}
			l.parsed[path] = f
			for _, imp := range f.Imports {
				if path := strings.Trim(imp.Path.Value, `"`); !l.imported[path] {
					l.imported[path] = true
					l.std = append(l.std, path)
				}
			}
		}
		files = append(files, f)
	}
	return files, nil
}

// checkPass type-checks one pass's packages, non-test files first and
// in import order, then their test variants, marking in used every
// declaration they refer to. It returns the checked packages and the
// exported declarations of the non-main ones.
func checkPass(fset *token.FileSet, pkgs []*pkg, stdImp types.Importer, used map[token.Pos]bool) (map[string]*types.Package, []types.Object, error) {
	mod := map[string]*types.Package{}
	imp := mapImporter{mod, stdImp}
	var decls []types.Object
	for _, p := range pkgs {
		info, tp, err := checkPkg(fset, p.ImportPath, p.files, imp, used)
		if err != nil {
			return nil, nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
		}
		mod[p.ImportPath] = tp
		if p.Name != "main" {
			decls = append(decls, exported(info)...)
		}
	}
	// Test variants only contribute uses. Their type errors (a type seen
	// through both the plain and the test variant of one package) do not
	// stop go/types from recording the uses around them.
	for _, p := range pkgs {
		variant := mod[p.ImportPath]
		if len(p.testFiles) > 0 {
			files := append(p.files[:len(p.files):len(p.files)], p.testFiles...)
			_, variant, _ = checkPkg(fset, p.ImportPath, files, imp, used)
		}
		if len(p.xtestFiles) > 0 {
			xtest := mapImporter{map[string]*types.Package{p.ImportPath: variant}, imp}
			checkPkg(fset, p.ImportPath+"_test", p.xtestFiles, xtest, used)
		}
	}
	return mod, decls, nil
}

// goCmd runs the go command in dir and returns its standard output.
func goCmd(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return nil, fmt.Errorf("go %s in %s: %s", args[0], dir, exit.Stderr)
	}
	return out, err
}

// stdImporter imports standard-library packages from the compiler's
// export data, which the go list command in args locates for all of
// them at once.
func stdImporter(fset *token.FileSet, dir string, args []string) (types.Importer, error) {
	out, err := goCmd(dir, args...)
	if err != nil {
		return nil, err
	}
	export := map[string]string{}
	for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
		if path, file, ok := strings.Cut(sc.Text(), "\t"); ok && file != "" {
			export[path] = file
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if file, ok := export[path]; ok {
			return os.Open(file)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	}), nil
}

// mapImporter serves already checked packages and defers the rest.
type mapImporter struct {
	mod  map[string]*types.Package
	next types.Importer
}

func (m mapImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.mod[path]; ok {
		return p, nil
	}
	return m.next.Import(path)
}

// checkPkg type-checks files as package path, marks in used the
// declaration of everything they refer to, and returns the first type
// error, if any.
func checkPkg(fset *token.FileSet, path string, files []*ast.File, imp types.Importer, used map[token.Pos]bool) (*types.Info, *types.Package, error) {
	conf := types.Config{Importer: imp, Error: func(error) {}}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	tp, err := conf.Check(path, fset, files, info)

	// A method's receiver names its type without using it.
	recv := map[*ast.Ident]bool{}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						recv[id] = true
					}
					return true
				})
			}
		}
	}
	for id, obj := range info.Uses {
		if recv[id] {
			continue
		}
		// A generic type's instances refer to its declarations.
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		used[obj.Pos()] = true
	}
	return info, tp, err
}

// exported returns the checked package's exported declarations that
// the gate covers: package-level ones, methods and non-embedded fields.
func exported(info *types.Info) []types.Object {
	var objs []types.Object
	for _, obj := range info.Defs {
		if obj == nil || !obj.Exported() {
			continue
		}
		switch o := obj.(type) {
		case *types.Func:
		case *types.Var:
			if o.Embedded() || !o.IsField() && o.Parent() != o.Pkg().Scope() {
				continue
			}
		case *types.TypeName, *types.Const:
			if o.Parent() != o.Pkg().Scope() {
				continue
			}
		default:
			continue
		}
		objs = append(objs, obj)
	}
	return objs
}

// interfaces returns, by method name, error and the non-generic named
// interfaces declared at package level in the module's packages and in
// every standard-library package they reach.
func interfaces(mod map[string]*types.Package) map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	add := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range mod {
		walk(p)
	}
	return byName
}

// recvType returns the named type a method is declared on, or nil.
func recvType(obj types.Object) *types.Named {
	f, ok := obj.(*types.Func)
	if !ok || f.Type().(*types.Signature).Recv() == nil {
		return nil
	}
	t := f.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// implementsSome reports whether obj is a method that lets its
// receiver's type, or a pointer to it, satisfy one of ifaces.
// types.Implements does not take a generic type, so the check is by
// hand, on *T's method set, which holds T's methods too.
func implementsSome(obj types.Object, ifaces map[string][]*types.Interface) bool {
	n := recvType(obj)
	if n == nil || types.IsInterface(n) {
		return false
	}
	ms := types.NewMethodSet(types.NewPointer(n))
	for _, it := range ifaces[obj.Name()] {
		all := true
		for i := 0; i < it.NumMethods() && all; i++ {
			m := it.Method(i)
			sel := ms.Lookup(m.Pkg(), m.Name())
			all = sel != nil && types.Identical(sel.Obj().Type(), m.Type())
		}
		if all {
			return true
		}
	}
	return false
}
