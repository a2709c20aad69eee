// Command deadexport fails when an exported identifier under internal/ is
// referenced only by its own package's tests. Run it from the root of the
// module (make verify does):
//
//	go run ./internal/tools/deadexport
//
// It checks the exported package-level names, and the exported methods of
// exported types, declared in non-test files of the packages under
// <module>/internal/, except internal/simtest (which exists for tests) and
// internal/tools. Each must be referenced by a non-test file of some module
// in the tree (the root module and any nested one, such as ccmbench/), or by
// a test file of another package. A method that implements a method of some
// interface in scope (error, json.Unmarshaler, obs.Tracer, ...) is exempt,
// since calls through the interface name no method.
//
// References are resolved with go/types, so a method is told apart from a
// same-named method of another type. Imports are read from the export data
// `go list -deps -test -export -json` reports, so the tool uses nothing but
// the standard library and the go command. It prints one line per finding,
// file:line and the qualified name, and exits 1 when there is any.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

func main() {
	findings, err := run(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadexport:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "deadexport: %d exported identifiers are referenced only by their own package's tests (delete them, unexport them, or move them into a _test.go file)\n", len(findings))
		os.Exit(1)
	}
}

// listed is the part of `go list -json` output the check reads.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	ForTest    string
	ImportMap  map[string]string
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// unit is one type-checked file set: a package, a package with its
// in-package tests, or an external test package.
type unit struct {
	pkg   *listed
	path  string // the package path objects are keyed by (no " [x.test]")
	owner string // the package whose tests the unit's test files are
}

// key names a declaration independently of which type-check produced it.
type key struct{ pkg, recv, name string }

func (k key) String() string {
	if k.recv != "" {
		return k.pkg + "." + k.recv + "." + k.name
	}
	return k.pkg + "." + k.name
}

// run checks the module rooted at root (and every module nested below it)
// and returns the findings, sorted.
func run(root string) ([]string, error) {
	mainMod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	mods, err := modules(root)
	if err != nil {
		return nil, err
	}
	modPaths := map[string]bool{}
	for _, dir := range mods {
		mod, err := modulePath(filepath.Join(dir, "go.mod"))
		if err != nil {
			return nil, err
		}
		modPaths[mod] = true
	}
	// byPath indexes every listed package (for its export data); units are
	// the file sets of the modules' packages, each listed once.
	byPath := map[string]*listed{}
	var units []unit
	for _, dir := range mods {
		pkgs, err := goList(dir)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if _, seen := byPath[p.ImportPath]; seen {
				continue
			}
			byPath[p.ImportPath] = p
			if p.Module == nil || !modPaths[p.Module.Path] || strings.HasSuffix(p.ImportPath, ".test") {
				continue
			}
			if p.Error != nil {
				return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
			}
			base, _, _ := strings.Cut(p.ImportPath, " ")
			switch {
			case p.ForTest == "":
				units = append(units, unit{pkg: p, path: base, owner: base})
			case base == p.ForTest || base == p.ForTest+"_test":
				// The package recompiled with its in-package tests, or its
				// external test package. A dependency recompiled for some
				// other package's test is the plain package again.
				units = append(units, unit{pkg: p, path: base, owner: p.ForTest})
			}
		}
	}

	fset := token.NewFileSet()
	decls := map[key]token.Position{}
	used := map[key]bool{}
	plain := map[string]*types.Package{}
	var all []*types.Package
	for _, u := range units {
		tp, info, err := check(fset, u, byPath)
		if err != nil {
			return nil, err
		}
		all = append(all, tp)
		if u.pkg.ForTest == "" {
			plain[u.path] = tp
			if checkedPath(mainMod, u.path) {
				declare(fset, tp, decls)
			}
		}
		for id, obj := range info.Uses {
			if obj.Pkg() == nil {
				continue
			}
			k, ok := keyOf(obj)
			if !ok {
				continue
			}
			if test := strings.HasSuffix(fset.Position(id.Pos()).Filename, "_test.go"); !test || k.pkg != u.owner {
				used[k] = true
			}
		}
	}

	ifaces := interfaces(all)
	var findings []string
	for k, pos := range decls {
		if used[k] || k.recv != "" && implementsSome(plain[k.pkg], k, ifaces) {
			continue
		}
		findings = append(findings, fmt.Sprintf("%s: %s", relPos(root, pos), k))
	}
	slices.Sort(findings)
	return findings, nil
}

// interfaces returns error and every non-generic named interface with
// methods declared in pkgs or the packages they import, transitively.
func interfaces(pkgs []*types.Package) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	for _, tp := range pkgs {
		walk(tp)
	}
	return out
}

// checkedPath reports whether declarations of package path are checked.
func checkedPath(mod, path string) bool {
	in := func(dir string) bool { return path == dir || strings.HasPrefix(path, dir+"/") }
	return in(mod+"/internal") && !in(mod+"/internal/simtest") && !in(mod+"/internal/tools")
}

// declare records the exported package-level names of tp, and the exported
// methods of its exported named types.
func declare(fset *token.FileSet, tp *types.Package, decls map[key]token.Position) {
	scope := tp.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		decls[key{pkg: tp.Path(), name: name}] = fset.Position(obj.Pos())
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		n, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := range n.NumMethods() {
			m := n.Method(i)
			if m.Exported() {
				decls[key{pkg: tp.Path(), recv: name, name: m.Name()}] = fset.Position(m.Pos())
			}
		}
	}
}

// keyOf names a used object: a package-level object, or a method by its
// receiver's named type. Fields, locals and interface methods have no key.
func keyOf(obj types.Object) (key, bool) {
	if obj.Parent() == obj.Pkg().Scope() {
		return key{pkg: obj.Pkg().Path(), name: obj.Name()}, true
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return key{}, false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return key{}, false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return key{}, false
	}
	return key{pkg: obj.Pkg().Path(), recv: n.Origin().Obj().Name(), name: obj.Name()}, true
}

// implementsSome reports whether the method k of a named type in tp is a
// method of some interface in ifaces that the type or its pointer
// implements.
func implementsSome(tp *types.Package, k key, ifaces []*types.Interface) bool {
	if tp == nil {
		return false
	}
	tn, ok := tp.Scope().Lookup(k.recv).(*types.TypeName)
	if !ok {
		return false
	}
	t := tn.Type()
	for _, it := range ifaces {
		if m, _, _ := types.LookupFieldOrMethod(it, false, nil, k.name); m != nil &&
			(types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
			return true
		}
	}
	return false
}

// check parses and type-checks u's files, importing from export data.
func check(fset *token.FileSet, u unit, byPath map[string]*listed) (*types.Package, *types.Info, error) {
	var files []*ast.File
	for _, name := range u.pkg.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(u.pkg.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := u.pkg.ImportMap[path]; ok {
			path = mapped
		}
		p, ok := byPath[path]
		if !ok || p.Export == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(p.Export)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	tp, err := conf.Check(u.path, fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("type-checking %s: %w", u.pkg.ImportPath, err)
	}
	return tp, info, nil
}

// goList lists the packages of the module in dir, their dependencies and
// their test variants, with export data built.
func goList(dir string) ([]*listed, error) {
	cmd := exec.Command("go", "list", "-deps", "-test", "-export", "-json", "./...")
	cmd.Dir = dir
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []*listed
	for dec := json.NewDecoder(&out); dec.More(); {
		p := new(listed)
		if err := dec.Decode(p); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// modules returns root and every directory below it holding a go.mod,
// skipping the directories the go command ignores (testdata, and names
// starting with "." or "_").
func modules(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
		}
		if !d.IsDir() && d.Name() == "go.mod" {
			dirs = append(dirs, filepath.Dir(path))
		}
		return nil
	})
	return dirs, err
}

// modulePath reads the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// relPos prints pos with its file relative to root.
func relPos(root string, pos token.Position) string {
	if abs, err := filepath.Abs(root); err == nil {
		if rel, err := filepath.Rel(abs, pos.Filename); err == nil {
			pos.Filename = rel
		}
	}
	return pos.String()
}
