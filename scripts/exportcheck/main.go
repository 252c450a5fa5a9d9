// Command exportcheck fails when a func, method, type, const, var or struct
// field declared in a non-test file of internal/ or cmd/ is used by no
// non-test file of the module, of a module nested in it (bench/) or of
// examples/, and is not on the allow-list. Every package is type-checked
// from source through one importer, so a use is an identifier that resolves
// to the declared object (a generic one through Origin), not a word that
// spells its name. A method stays when its type satisfies an interface that
// has it. Names that only a nested module uses are printed, not failed.
//
//	go run ./scripts/exportcheck    # from the repository root
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	goimporter "go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// allow holds the names that stay although only tests use them, with why.
var allow = map[string]string{
	"tensor.Mat.RandNormal":         "the fixture generator of 14 test files in 10 packages; a test-helper package would only move it",
	"pipeline.EarlyTerminationStep": "with TerminationPolicy, ROADMAP item 3: Lab.RunEarlyTermination calls it on the alarm sources",
}

func main() {
	flagged, nested, err := check(".")
	if err != nil {
		flagged = append(flagged, "exportcheck: "+err.Error())
	}
	for _, s := range nested {
		fmt.Println("used only by a nested module, not a failure:", s)
	}
	if len(flagged) > 0 {
		fmt.Fprintf(os.Stderr, "used only by tests (give each a caller, delete it, move it into a _test.go file or allow-list it with its reason):\n%s\n", strings.Join(flagged, "\n"))
		os.Exit(1)
	}
}

// importer is a types.Importer made of a func.
type importer func(path string) (*types.Package, error)

func (f importer) Import(path string) (*types.Package, error) { return f(path) }

// check returns, as "pkg.[Type.]Name file:line", the declarations under
// root that fail and those that only a nested module uses.
func check(root string) (flagged, nested []string, err error) {
	fset, info := token.NewFileSet(), types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	std := goimporter.ForCompiler(fset, "source", nil)
	dirs, pkgs, files := map[string]string{}, map[string]*types.Package{}, []*ast.File{} // dirs: import path → directory
	ip, mod := map[string]string{}, map[string]string{}                                  // directory → import path, its module's directory
	err = filepath.Walk(root, func(p string, d os.FileInfo, err error) error {
		if err != nil || !d.IsDir() {
			return err
		} else if n := d.Name(); p != root && (n == "testdata" || n[0] == '.' || n[0] == '_') {
			return filepath.SkipDir
		}
		ip[p], mod[p] = ip[filepath.Dir(p)]+"/"+d.Name(), mod[filepath.Dir(p)]
		if b, err := os.ReadFile(filepath.Join(p, "go.mod")); err == nil {
			ip[p], mod[p] = string(regexp.MustCompile(`(?m)^module\s+(\S+)`).FindSubmatch(b)[1]), p
		}
		dirs[ip[p]] = p
		return nil
	})
	if err != nil || mod[root] != root {
		return nil, nil, fmt.Errorf("no module at %s (%v)", root, err)
	}
	var imp importer // type-checks, once, a package under root from the non-test files its build constraints select
	imp = func(path string) (*types.Package, error) {
		if p, done := pkgs[path]; done {
			return p, nil
		} else if _, ok := dirs[path]; !ok {
			return std.Import(path)
		}
		names, _ := filepath.Glob(filepath.Join(dirs[path], "*.go"))
		var pf []*ast.File
		for _, name := range names {
			if ok, _ := build.Default.MatchFile(dirs[path], filepath.Base(name)); ok && !strings.HasSuffix(name, "_test.go") {
				f, err := parser.ParseFile(fset, name, nil, 0)
				if err != nil {
					return nil, err
				}
				pf = append(pf, f)
			}
		}
		p, err := (&types.Config{Importer: imp}).Check(path, fset, pf, &info)
		pkgs[path], files = p, append(files, pf...)
		return p, err
	}
	for path := range dirs {
		if _, err := imp(path); err != nil {
			return nil, nil, err
		}
	}
	used := map[types.Object]string{} // "." once the root module uses it, else the nested module's directory
	for id, obj := range info.Uses {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
		} else if v, ok := obj.(*types.Var); ok {
			obj = v.Origin()
		}
		if d, _ := filepath.Rel(root, mod[filepath.Dir(fset.Position(id.Pos()).Filename)]); d == "." || used[obj] != "." {
			used[obj] = d
		}
	}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, p := range pkgs { // the interfaces of every package checked and of every one it imports
		for _, q := range append(p.Imports(), p) {
			for _, n := range q.Scope().Names() {
				if t, ok := q.Scope().Lookup(n).(*types.TypeName); ok && !t.IsAlias() && types.IsInterface(t.Type()) && t.Type().(*types.Named).TypeParams().Len() == 0 {
					ifaces = append(ifaces, t.Type().Underlying().(*types.Interface))
				}
			}
		}
	}
	decls := map[*ast.Ident]string{} // → pkg.[Type.]Name
	for _, f := range files {
		if rel, _ := filepath.Rel(root, fset.Position(f.Pos()).Filename); !strings.HasPrefix(rel, "internal/") && !strings.HasPrefix(rel, "cmd/") {
			continue
		}
		pkg, typ := f.Name.Name+".", ""
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil {
					if t, ok := needed(info.Defs[n.Name].(*types.Func), ifaces); !ok {
						decls[n.Name] = pkg + t + "." + n.Name.Name
					}
				} else if n.Name.Name != "main" && n.Name.Name != "init" {
					decls[n.Name] = pkg + n.Name.Name
				}
				return false
			case *ast.TypeSpec:
				typ = n.Name.Name + "."
			case *ast.Ident: // a package-level name or a struct's field
				if o := info.Defs[n]; o != nil && o.Parent() == o.Pkg().Scope() {
					decls[n] = pkg + n.Name
				} else if v, ok := o.(*types.Var); ok && v.IsField() {
					decls[n] = pkg + typ + n.Name
				}
			}
			return true
		})
	}
	for id, name := range decls {
		pos := fset.Position(id.Pos())
		rel, _ := filepath.Rel(root, pos.Filename)
		if u, ok := used[info.Defs[id]]; !ok && id.Name != "_" && allow[name] == "" {
			flagged = append(flagged, fmt.Sprintf("%s %s:%d", name, rel, pos.Line))
		} else if ok && u != "." && allow[name] == "" {
			nested = append(nested, fmt.Sprintf("%s %s:%d (%s)", name, rel, pos.Line, u))
		}
	}
	sort.Strings(flagged)
	sort.Strings(nested)
	return flagged, nested, nil
}

// needed reports whether a pointer to method f's type (whose method set
// holds the value's) satisfies one of ifaces that has a method of f's name;
// if not, it names that type.
func needed(f *types.Func, ifaces []*types.Interface) (string, bool) {
	t := f.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for _, it := range ifaces {
		if m, _, _ := types.LookupFieldOrMethod(it, false, f.Pkg(), f.Name()); m != nil && types.Implements(types.NewPointer(t), it) {
			return "", true
		}
	}
	return t.(*types.Named).Obj().Name(), false
}
