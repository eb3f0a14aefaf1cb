package pasta_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllow lists the non-test declarations under internal/ that no
// command, benchmark or public-API code reaches and that stay anyway,
// each with the reason. An entry is a root of its own, so what it calls
// needs no entry; an entry that is reached, or no longer declared,
// fails the check.
var reachAllow = map[string]string{
	"internal/dist.AllReduceVolume":                "the ring all-reduce's closed-form traffic (DESIGN.md §13), GatherVolume's twin; the comm tests assert Comm.Stats against it",
	"internal/govern.Governor.BytesInflight":       "the admission ledger's read side: govern's and serve's tests assert that no admitted byte leaks",
	"internal/parallel.AtomicAddFloat64":           "the OpenMP runtime's atomic add at double precision (DESIGN.md §1 row 7)",
	"internal/parallel.ForEach":                    "the OpenMP runtime's per-index parallel loop (DESIGN.md §1 row 7)",
	"internal/resilience.Injector.Disarm":          "the chaos tests of resilience, serve and cmd/pastad disarm their injector with it",
	"internal/resilience.Injector.Injected":        "the chaos tests of resilience, serve and cmd/pastad assert through it that an armed fault fired",
	"internal/resilience.Injector.InstallDevice":   "the injector's GPU-side fault points (gpusim's launch and block hooks); only the chaos matrix arms device faults",
	"internal/resilience.Injector.UninstallDevice": "detaches InstallDevice's hooks",
	"internal/tensor.AbsDiff":                      "the coordinate-map comparison the tests of a dozen packages share; internal/tensortest cannot host it, tensor's own tests would import it in a cycle",
	"internal/tensor.COO.AppendIdx3":               "the third-order fixture builder of the tests of seven packages; internal/tensortest cannot declare a method of COO",
}

// TestEveryInternalDeclarationIsReached fails on any non-test
// declaration under internal/ (internal/tensortest excepted: it exists
// for tests) that neither the code outside internal/ nor the public
// API's Examples reach: delete it, move it into the _test.go files that
// use it, or allowlist it with a reason.
func TestEveryInternalDeclarationIsReached(t *testing.T) {
	decls, err := reachability(".", reachAllow)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]reachClass{}
	for _, d := range decls {
		declared[d.key] = d.class
		if d.class == reached || d.class == allowlisted || !strings.HasPrefix(d.key, "internal/") || strings.HasPrefix(d.key, "internal/tensortest.") {
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
// everything, or nothing, fails.
func TestReachabilityClassifies(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module m\n\ngo 1.22\n",
		"main.go": `package main

import "m/internal/lib"

type getter interface{ Get() int }

func main() {
	var g getter = lib.Reached()
	println(g.Get())
}
`,
		"internal/lib/lib.go": `package lib

type T struct{}

func Reached() T { return T{} }

func (T) Get() int { return 1 }

func (T) String() string { return "t" }

func TestOnly() int { return 2 }

func Documented() {}

func Unreached() int { return 3 }

func Kept() int { return helper() }

func helper() int { return 4 }

type U struct{}

func (U) String() string { return "u" }
`,
		"main_test.go": `package main

import "m/internal/lib"

func ExampleDocumented() { lib.Documented() }
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
		"internal/lib.Reached":    reached,
		"internal/lib.T":          reached,
		"internal/lib.T.Get":      reached, // only through the interface
		"internal/lib.T.String":   reached, // fmt's, on a reached type
		"internal/lib.TestOnly":   testOnly,
		"internal/lib.Documented": reached, // by an Example
		"internal/lib.Unreached":  unreached,
		"internal/lib.Kept":       allowlisted,
		"internal/lib.helper":     allowlisted, // through Kept
		"internal/lib.U":          unreached,
		"internal/lib.U.String":   unreached,
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
// is the package's directory (the module path for the module root) and
// the name, with the receiver's type name between the two for a method.
type reachDecl struct {
	key   string
	pos   token.Position
	test  bool // declared in a _test.go file
	class reachClass
}

// stdlibMethods are method names the standard library calls through
// its interfaces (fmt, errors, sort, container/heap, encoding/json,
// io, flag, net/http). A reached type reaches its methods so named.
var stdlibMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true, "Len": true, "Less": true,
	"Swap": true, "Push": true, "Pop": true, "MarshalJSON": true,
	"UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Read": true, "Write": true, "Close": true, "ReadAt": true,
	"Seek": true, "WriteTo": true, "ReadFrom": true, "Set": true,
	"ServeHTTP": true, "Timeout": true,
}

// reachability classifies every top-level declaration of the module
// rooted at dir, by name alone (go/parser and go/ast, no type
// checker). Edges: an identifier reaches the same-package declaration
// of that name; pkg.Name reaches Name in the imported package; any
// other .Name selector or composite-literal key reaches every method
// called Name, which is conservative for interfaces and embedding.
// Roots: the non-test declarations outside internal/ and the Example
// functions there (the public API's documentation), and every init and
// main; the keys of allow are roots of the class allowlisted.
func reachability(dir string, allow map[string]string) ([]reachDecl, error) {
	module, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	type file struct {
		f     *ast.File
		scope string // package key: directory, plus "_test" for an external test package
		test  bool
	}
	fset := token.NewFileSet()
	var files []file
	pkgNames := map[string]string{}       // import path → package name
	names := map[string]map[string]bool{} // scope → top-level names
	err = filepath.WalkDir(dir, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if p != dir && (strings.ContainsAny(e.Name()[:1], "._") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, filepath.Dir(p))
		if err != nil {
			return err
		}
		imp := path.Join(module, filepath.ToSlash(rel))
		fl := file{f, scopeOf(module, imp), strings.HasSuffix(p, "_test.go")}
		if strings.HasSuffix(f.Name.Name, "_test") {
			fl.scope += "_test"
		} else if !fl.test {
			pkgNames[imp] = f.Name.Name
		}
		if names[fl.scope] == nil {
			names[fl.scope] = map[string]bool{}
		}
		for _, d := range f.Decls {
			for _, id := range declIdents(d) {
				names[fl.scope][id.Name] = true
			}
		}
		files = append(files, fl)
		return nil
	})
	if err != nil {
		return nil, err
	}

	decls := map[string]*reachDecl{}
	uses := map[string]map[string]bool{} // key → keys, or "#Name" for every method Name
	methods := map[string][]string{}     // method name → keys
	typeMethods := map[string][]string{} // type key → keys of its stdlib-named methods
	for _, fl := range files {
		imports := map[string]string{} // local name → scope of a module package
		for _, im := range fl.f.Imports {
			p := strings.Trim(im.Path.Value, `"`)
			if p != module && !strings.HasPrefix(p, module+"/") {
				continue
			}
			local := pkgNames[p]
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = scopeOf(module, p)
		}
		// walk records in to every declaration the syntax under n names.
		var walk func(n ast.Node, to map[string]bool)
		walk = func(n ast.Node, to map[string]bool) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if id, ok := n.X.(*ast.Ident); ok && imports[id.Name] != "" {
						to[imports[id.Name]+"."+n.Sel.Name] = true
						return false
					}
					to["#"+n.Sel.Name] = true
					walk(n.X, to)
					return false
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						to["#"+id.Name] = true
					}
				case *ast.Field: // declared names are not uses
					walk(n.Type, to)
					return false
				case *ast.Ident:
					if names[fl.scope][n.Name] {
						to[fl.scope+"."+n.Name] = true
					}
				}
				return true
			})
		}
		// declare returns the uses set of the declaration at key.
		declare := func(key string, pos token.Pos) map[string]bool {
			if decls[key] == nil {
				decls[key] = &reachDecl{key: key, pos: fset.Position(pos), test: fl.test}
				uses[key] = map[string]bool{}
			}
			return uses[key]
		}
		for _, d := range fl.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				key := fl.scope + "." + d.Name.Name
				if d.Recv != nil {
					typ := fl.scope + "." + recvType(d.Recv.List[0].Type)
					key = typ + "." + d.Name.Name
					methods[d.Name.Name] = append(methods[d.Name.Name], key)
					if stdlibMethods[d.Name.Name] {
						typeMethods[typ] = append(typeMethods[typ], key)
					}
				}
				to := declare(key, d.Pos())
				if d.Recv != nil {
					walk(d.Recv, to)
				}
				walk(d.Type, to)
				if d.Body != nil {
					walk(d.Body, to)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						to := declare(fl.scope+"."+s.Name.Name, s.Name.Pos())
						if s.TypeParams != nil {
							walk(s.TypeParams, to)
						}
						walk(s.Type, to)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.Name == "_" {
								continue
							}
							to := declare(fl.scope+"."+id.Name, id.Pos())
							if s.Type != nil {
								walk(s.Type, to)
							}
							for _, v := range s.Values {
								walk(v, to)
							}
						}
					}
				}
			}
		}
	}

	// reach marks every declaration reachable from those start keeps.
	reach := func(start func(*reachDecl) bool) map[string]bool {
		seen := map[string]bool{}
		var stack []string
		push := func(key string) {
			if decls[key] != nil && !seen[key] {
				seen[key] = true
				stack = append(stack, key)
			}
		}
		for key, d := range decls {
			if start(d) {
				push(key)
			}
		}
		for len(stack) > 0 {
			key := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for u := range uses[key] {
				if strings.HasPrefix(u, "#") {
					for _, m := range methods[u[1:]] {
						push(m)
					}
				} else {
					push(u)
				}
			}
			for _, m := range typeMethods[key] {
				push(m)
			}
		}
		return seen
	}
	root := func(d *reachDecl) bool {
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		if strings.HasPrefix(d.key, "internal/") {
			return !d.test && (name == "init" || name == "main")
		}
		return !d.test || strings.HasPrefix(name, "Example")
	}
	fromRoots := reach(root)
	fromAllow := reach(func(d *reachDecl) bool { _, ok := allow[d.key]; return ok || root(d) })
	fromTests := reach(func(d *reachDecl) bool { return d.test })

	var out []reachDecl
	for key, d := range decls {
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

// declIdents are the package-scope names a declaration introduces:
// not a method's, which lives in its type's scope.
func declIdents(d ast.Decl) []*ast.Ident {
	var ids []*ast.Ident
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			ids = append(ids, d.Name)
		}
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				ids = append(ids, s.Name)
			case *ast.ValueSpec:
				ids = append(ids, s.Names...)
			}
		}
	}
	return ids
}

// recvType is the name of a method receiver's type: T for T, *T,
// T[P] and *T[P].
func recvType(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return fmt.Sprintf("%T", e)
		}
	}
}

// scopeOf is the key prefix of the package at import path p.
func scopeOf(module, p string) string {
	if p == module {
		return module
	}
	return strings.TrimPrefix(p, module+"/")
}

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(m), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}
