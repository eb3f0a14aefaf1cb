package pasta_test

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
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// reachAllow lists the non-test declarations that no command, benchmark
// or Example reaches and that stay anyway, each with the reason. An
// entry is a root of its own, so what it calls needs no entry; an entry
// that is reached, or no longer declared, fails the check.
var reachAllow = map[string]string{
	"internal/gpusim.Device.SetBlockHook":    "the device's per-block fault point: gpusim's hook tests and resilience's chaos matrix attach to it",
	"internal/gpusim.Device.SetLaunchHook":   "the device's launch fault point: gpusim's hook tests and resilience's chaos matrix attach to it",
	"internal/govern.Governor.BytesInflight": "the admission ledger's read side: govern's and serve's tests assert that no admitted byte leaks",
	"internal/hicoo.HiCOO.Validate":          "HiCOO's structural oracle: hicoo's tests check conversions with it, core's the outputs of the HiCOO Tew/Ts/Ttv kernels",
	"internal/hicoo.SemiHiCOO.Validate":      "sHiCOO's structural oracle: hicoo's tests check conversions with it, core's the output of the HiCOO Ttm kernel",
	"internal/levels.Hierarchy.Validate":     "the bCSF hierarchy's structural oracle: levels' tests check Build and FromCSF with it, kernelreg's the workbench's bCSF conversion",
	"internal/resilience.Injector.Disarm":    "the chaos tests of resilience, serve and cmd/pastad disarm their injector with it",
	"internal/resilience.Injector.Injected":  "the chaos tests of resilience, serve and cmd/pastad assert through it that an armed fault fired",
	"internal/tensor.AbsDiff":                "the absolute-deviation merge walk the tests of a dozen packages compare tensors with; internal/tensortest cannot host it, tensor's own tests would import it in a cycle",
	"internal/tensor.COO.AppendIdx3":         "the third-order fixture builder of the tests of seven packages; internal/tensortest cannot declare a method of COO",
	"internal/tensor.SemiCOO.Validate":       "sCOO's structural oracle: tensor's and hicoo's tests check conversions with it, core's the outputs of the Ttm kernels",
}

// TestEveryInternalDeclarationIsReached fails on any non-test
// declaration under internal/ (internal/tensortest excepted: it exists
// for tests) or in the pasta facade that neither cmd/, bench/ nor the
// public API's Examples reach: delete it, move it into the _test.go
// files that use it, or allowlist it with a reason.
func TestEveryInternalDeclarationIsReached(t *testing.T) {
	t.Parallel()
	decls, err := reachability(".", reachAllow)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]reachClass{}
	for _, d := range decls {
		declared[d.key] = d.class
		if d.class == reached || d.class == allowlisted || strings.HasPrefix(d.key, "internal/tensortest.") {
			continue
		}
		t.Errorf("%s: %s is %s", d.pos, d.key, d.class)
	}
	for key := range reachAllow {
		switch class, ok := declared[key]; {
		case !ok:
			t.Errorf("allowlisted %s is no longer declared", key)
		case class == reached:
			t.Errorf("allowlisted %s is reached now: drop it from reachAllow", key)
		}
	}
}

// TestReachabilityClassifies runs the check on a synthetic module with
// one declaration of each kind, so that a checker that reaches
// everything, or nothing, or resolves a method by its name alone, fails.
func TestReachabilityClassifies(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module m\n\ngo 1.22\n",
		"m.go": `package m

import "m/internal/lib"

func Shown() int { return lib.ShownOnly() }

func Hidden() int { return 5 }
`,
		"cmd/tool/main.go": `package main

import "m/internal/lib"

type getter interface{ Get() int }

func main() {
	var g getter = lib.Reached()
	println(g.Get())
	println(lib.A{}.Name())
	_ = lib.NewB()
	println(lib.Show(lib.C{}))
}
`,
		"internal/lib/lib.go": `package lib

type T struct{}

func Reached() T { return T{} }

func (T) Get() int { return 1 }

func (T) String() string { return "t" }

func TestOnly() int { return 2 }

func Documented() {}

func Undocumented() {}

func ShownOnly() int { return 6 }

func Unreached() int { return 3 }

func Kept() int { return helper() }

func helper() int { return 4 }

type U struct{}

func (U) String() string { return "u" }

type A struct{}

func (A) Name() string { return "a" }

type B struct{}

func NewB() B { return B{} }

func (B) Name() string { return "b" }

type labeler interface{ Label() string }

func Show[P labeler](p P) string { return p.Label() }

type C struct{}

func (C) Label() string { return "c" }

type V struct{}

func (V) Get() int { return 7 }
`,
		"m_test.go": `package m_test

import (
	"fmt"

	"m"
	"m/internal/lib"
)

func ExampleDocumented() {
	lib.Documented()
	fmt.Println(m.Shown())
	// Output: 6
}

func ExampleUndocumented() { lib.Undocumented(); _ = m.Hidden() }
`,
		"internal/lib/lib_test.go": `package lib

import "testing"

func TestOnlyIsUsed(t *testing.T) { _ = TestOnly() }
`,
	}
	for name, src := range files {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	decls, err := reachability(dir, map[string]string{"internal/lib.Kept": "allowlisted"})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]reachClass{}
	for _, d := range decls {
		got[d.key] = d.class
	}
	want := map[string]reachClass{
		"m.Shown":                   reached,  // by an Example
		"m.Hidden":                  testOnly, // the facade is no root
		"internal/lib.ShownOnly":    reached,  // through the facade's Shown
		"internal/lib.Reached":      reached,
		"internal/lib.T":            reached,
		"internal/lib.T.Get":        reached, // only through the interface
		"internal/lib.T.String":     reached, // fmt's, on a reached type
		"internal/lib.TestOnly":     testOnly,
		"internal/lib.Documented":   reached,  // by an Example with output
		"internal/lib.Undocumented": testOnly, // an Example without output runs nothing
		"internal/lib.Unreached":    unreached,
		"internal/lib.Kept":         allowlisted,
		"internal/lib.helper":       allowlisted, // through Kept
		"internal/lib.U":            unreached,
		"internal/lib.U.String":     unreached,
		"internal/lib.A.Name":       reached,
		"internal/lib.B":            reached,
		"internal/lib.B.Name":       unreached, // A.Name's namesake, never called
		"internal/lib.C.Label":      reached,   // through Show's constraint
		"internal/lib.V":            unreached,
		"internal/lib.V.Get":        unreached, // implements getter, but no V exists
	}
	for key, w := range want {
		if got[key] != w {
			t.Errorf("%s: got %q, want %q", key, got[key], w)
		}
	}
}

type reachClass string

const (
	reached     reachClass = "reached"
	allowlisted reachClass = "reached only through the allowlist"
	testOnly    reachClass = "reached only from tests"
	unreached   reachClass = "reached by nothing"
)

// reachDecl is one top-level func, method, type, var or const. Its key
// is the package's directory (the module path for the module root; an
// external test package adds "_test") and the name, with the receiver's
// type name between the two for a method.
type reachDecl struct {
	key   string
	pos   token.Position
	test  bool // declared in a _test.go file
	root  bool
	class reachClass
}

// stdlibMethods are method names the standard library calls through
// its interfaces on values the module hands it (fmt, errors, sort,
// container/heap, encoding/json, io, flag, net/http). A call the module
// makes through an interface is an edge of its own; these are the calls
// no module source shows.
var stdlibMethods = []string{
	"String", "GoString", "Format", "Error", "Unwrap", "Is", "As",
	"Len", "Less", "Swap", "Push", "Pop", "MarshalJSON", "UnmarshalJSON",
	"MarshalText", "UnmarshalText", "Read", "Write", "Close", "ReadAt",
	"Seek", "WriteTo", "ReadFrom", "Set", "ServeHTTP", "Timeout",
}

// listedPackage is the part of a `go list -json` record the check reads.
type listedPackage struct {
	Dir, ImportPath, Name, Export, ForTest string
	Module                                 *struct{ Path string }
	GoFiles, TestGoFiles                   []string
	ImportMap                              map[string]string
}

// goList runs `go list -deps -test -export -json ./...` in dir: every
// package the module's code and tests import, with its files and its
// export data, and the test variants go test builds. It builds what has
// no export data yet, into the build cache.
func goList(dir string) ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-test", "-export", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// reachability classifies every non-test top-level declaration of the
// module rooted at dir. `go list` gives each package's files, with the
// build constraints applied, and the export data of everything they
// import. Each module package is type-checked once with its in-package
// tests against that export data; an external test package is checked
// apart, against the test variants go test links it with, so it sees
// what its package's _test.go files declare.
//
// Edges are the objects types.Info.Uses records inside a declaration. A
// call through an interface method, or through a type parameter's
// constraint, reaches every method of that name on a reached type, as
// do the standard library's calls in stdlibMethods. Roots: the non-test
// code outside internal/ and the module root package (cmd/, bench/),
// every init and main, and the Examples with an output comment outside
// internal/ (the public API's documentation); the keys of allow are
// roots of the class allowlisted.
func reachability(dir string, allow map[string]string) ([]reachDecl, error) {
	pkgs, err := goList(dir)
	if err != nil {
		return nil, err
	}
	g := &reachGraph{
		fset:    token.NewFileSet(),
		decls:   map[string]*reachDecl{},
		uses:    map[string]map[string]bool{},
		methods: map[string][]string{},
		ofType:  map[string][]string{},
	}
	exports := map[string]string{}
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
	}
	// exportData reads a package's export data, through a test
	// package's import map.
	exportData := func(importMap map[string]string) types.Importer {
		return importer.ForCompiler(g.fset, "gc", func(path string) (io.ReadCloser, error) {
			if variant, ok := importMap[path]; ok {
				path = variant
			}
			if exports[path] == "" {
				return nil, fmt.Errorf("no export data for %s", path)
			}
			return os.Open(exports[path])
		})
	}
	plain := exportData(nil)
	for _, p := range pkgs {
		if p.Module == nil || strings.HasSuffix(p.ImportPath, ".test") {
			continue // outside the module, or a generated test main
		}
		g.module = p.Module.Path
		switch {
		case p.ForTest == "":
			if err := g.check(plain, p.ImportPath, p.Dir, append(p.GoFiles, p.TestGoFiles...)); err != nil {
				return nil, err
			}
		case strings.HasSuffix(p.Name, "_test"):
			path, _, _ := strings.Cut(p.ImportPath, " ")
			if err := g.check(exportData(p.ImportMap), path, p.Dir, p.GoFiles); err != nil {
				return nil, err
			}
		}
	}

	fromRoots := g.reach(func(d *reachDecl) bool { return d.root })
	fromAllow := g.reach(func(d *reachDecl) bool { _, ok := allow[d.key]; return ok || d.root })
	fromTests := g.reach(func(d *reachDecl) bool { return d.test })
	var out []reachDecl
	for key, d := range g.decls {
		if d.test {
			continue
		}
		switch {
		case fromRoots[key]:
			d.class = reached
		case fromAllow[key]:
			d.class = allowlisted
		case fromTests[key]:
			d.class = testOnly
		default:
			d.class = unreached
		}
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out, nil
}

// reachGraph is the module's declarations and their uses.
type reachGraph struct {
	module  string
	fset    *token.FileSet
	decls   map[string]*reachDecl
	uses    map[string]map[string]bool // key → keys, or "#Name" for an interface call
	methods map[string][]string        // method name → keys
	ofType  map[string][]string        // type key → keys of its methods
}

// check type-checks one package from the named files and records its
// declarations and their uses.
func (g *reachGraph) check(imp types.Importer, path, dir string, names []string) error {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(g.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", runtime.GOARCH)}
	if _, err := conf.Check(path, g.fset, files, info); err != nil {
		return err
	}
	scope := g.scope(path)
	internal := strings.HasPrefix(scope, "internal/")
	outside := !internal && scope != g.module // cmd/ and bench/
	for _, f := range files {
		test := strings.HasSuffix(g.fset.File(f.Pos()).Name(), "_test.go")
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				root := !test && (outside || name == "init" || name == "main") ||
					test && !internal && d.Recv == nil && strings.HasPrefix(name, "Example") && hasOutput(f, d)
				key := g.key(info.Defs[d.Name])
				if name == "init" && d.Recv == nil {
					key = scope + ".init" // not declared in the package scope
				}
				g.declare(info, key, d.Name, test, root, d)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						g.declare(info, g.key(info.Defs[s.Name]), s.Name, test, !test && outside, s)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.Name != "_" {
								g.declare(info, g.key(info.Defs[id]), id, test, !test && outside, s)
							}
						}
					}
				}
			}
		}
	}
	return nil
}

// declare records the declaration of id at key and the uses under its
// syntax.
func (g *reachGraph) declare(info *types.Info, key string, id *ast.Ident, test, root bool, syntax ast.Node) {
	if g.decls[key] == nil {
		g.decls[key] = &reachDecl{key: key, pos: g.fset.Position(id.Pos()), test: test}
		g.uses[key] = map[string]bool{}
		if fn, ok := info.Defs[id].(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
			typ := key[:strings.LastIndex(key, ".")]
			g.methods[fn.Name()] = append(g.methods[fn.Name()], key)
			g.ofType[typ] = append(g.ofType[typ], key)
		}
	}
	g.decls[key].root = g.decls[key].root || root
	to := g.uses[key]
	ast.Inspect(syntax, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if k := g.key(info.Uses[id]); k != "" {
				to[k] = true
			}
		}
		return true
	})
}

// key names a package-level object or method of the module, "#Name"
// for an interface method, and "" for anything else.
func (g *reachGraph) key(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		fn = fn.Origin()
		t := fn.Type().(*types.Signature).Recv().Type()
		if types.IsInterface(t) {
			return "#" + fn.Name()
		}
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := types.Unalias(t).(*types.Named)
		if scope := g.scope(fn.Pkg().Path()); ok && scope != "" {
			return scope + "." + named.Obj().Name() + "." + fn.Name()
		}
		return ""
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "" // a local, a field or a label
	}
	if scope := g.scope(obj.Pkg().Path()); scope != "" {
		return scope + "." + obj.Name()
	}
	return ""
}

// scope is the key prefix of the module package at import path p, ""
// outside the module.
func (g *reachGraph) scope(p string) string {
	if p == g.module || p == g.module+"_test" {
		return p
	}
	if rel, ok := strings.CutPrefix(p, g.module+"/"); ok {
		return rel
	}
	return ""
}

// reach marks every declaration reachable from those start keeps.
func (g *reachGraph) reach(start func(*reachDecl) bool) map[string]bool {
	seen := map[string]bool{}
	called := map[string]bool{} // method names called through an interface
	var stack []string
	push := func(key string) {
		if g.decls[key] != nil && !seen[key] {
			seen[key] = true
			stack = append(stack, key)
		}
	}
	dispatch := func(name string) {
		if called[name] {
			return
		}
		called[name] = true
		for _, m := range g.methods[name] {
			if seen[m[:strings.LastIndex(m, ".")]] {
				push(m)
			}
		}
	}
	for _, name := range stdlibMethods {
		called[name] = true
	}
	for key, d := range g.decls {
		if start(d) {
			push(key)
		}
	}
	for len(stack) > 0 {
		key := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for u := range g.uses[key] {
			if name, ok := strings.CutPrefix(u, "#"); ok {
				dispatch(name)
			} else {
				push(u)
			}
		}
		for _, m := range g.ofType[key] {
			if called[m[strings.LastIndex(m, ".")+1:]] {
				push(m)
			}
		}
	}
	return seen
}

// hasOutput reports whether the Example fn carries an output comment,
// without which `go test` compiles it but never runs it.
func hasOutput(f *ast.File, fn *ast.FuncDecl) bool {
	for _, c := range f.Comments {
		if c.Pos() > fn.Body.Lbrace && c.End() < fn.Body.Rbrace {
			text := strings.ToLower(c.Text())
			if strings.HasPrefix(text, "output:") || strings.HasPrefix(text, "unordered output:") {
				return true
			}
		}
	}
	return false
}
