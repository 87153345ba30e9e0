package embellish

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The design's invariants over declarations: facts the simplifications
// established — a layout, a lever or a setting that is gone — held by
// parsing the module's Go with go/parser, so a comment naming a retired
// identifier is no violation and a declaration under a new spelling of
// the same form is. bench/ is its own module and is skipped.

// moduleFile is one parsed Go file of the module.
type moduleFile struct {
	path string // slash-separated, relative to the module root
	file *ast.File
	test bool
}

// parseModule parses every Go file of the module outside bench/, with
// the go tool's directory rules: testdata and directories whose name
// starts with "." or "_" hold no package.
func parseModule(t *testing.T) []moduleFile {
	t.Helper()
	var files []moduleFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (p == "bench" || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, moduleFile{path: filepath.ToSlash(p), file: f, test: strings.HasSuffix(name, "_test.go")})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 100 {
		t.Fatalf("parsed %d Go files; the walk did not start at the module root", len(files))
	}
	return files
}

// receiver returns the type name a method is declared on ("" for a
// function).
func receiver(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// declarations lists the file's top-level names: types as "T",
// functions as "f" and methods as both "T.m" and "m".
func declarations(f *ast.File) []string {
	var out []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if r := receiver(d); r != "" {
				out = append(out, r+"."+d.Name.Name)
			}
			out = append(out, d.Name.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok {
					out = append(out, ts.Name.Name)
				}
			}
		}
	}
	return out
}

// TestSurface holds the retired surface gone.
func TestSurface(t *testing.T) {
	files := parseModule(t)

	// A segment holds its postings once, cut into the plan's runs: no
	// second, sharded copy of them, no wrapper to hang it on, and one
	// owner of the shard count (index.Live.SetSharding).
	t.Run("postings held once", func(t *testing.T) {
		retired := map[string]map[string]bool{
			"internal/index": {"Sharded": true, "Segment": true, "NewSegment": true,
				"ShardedView": true, "ensureSharded": true, "Index.Shard": true},
			"internal/core": {"Server.SetSharding": true},
		}
		for _, f := range files {
			for _, name := range declarations(f.file) {
				if retired[path.Dir(f.path)][name] {
					t.Errorf("%s declares %s", f.path, name)
				}
			}
		}
	})

	// The execution schedule is derived from GOMAXPROCS (applyExecution),
	// never set: no method to set it, no flag, and nothing outside
	// options.go reads the four deprecated Options fields.
	t.Run("no execution-schedule setting", func(t *testing.T) {
		setters := map[string]bool{"ConfigureExecution": true, "ConfigurePIRWorkers": true}
		flags := map[string]bool{"shards": true, "window": true, "workers": true, "pir-workers": true}
		fields := map[string]bool{"Shards": true, "Parallelism": true, "PrecomputeWindow": true, "PIRWorkers": true}
		for _, f := range files {
			options := f.path == "options.go" || f.path == "options_test.go"
			cmd := strings.HasPrefix(f.path, "cmd/")
			ast.Inspect(f.file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if !f.test && setters[n.Name] {
						t.Errorf("%s names %s", f.path, n.Name)
					}
				case *ast.SelectorExpr:
					if !options && fields[n.Sel.Name] {
						t.Errorf("%s reads .%s", f.path, n.Sel.Name)
					}
				case *ast.CallExpr:
					if !cmd {
						return true
					}
					if sel, ok := n.Fun.(*ast.SelectorExpr); !ok || !flagDefiner(sel.Sel.Name) {
						return true
					}
					for _, arg := range n.Args {
						if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
							if name, err := strconv.Unquote(lit.Value); err == nil && flags[name] {
								t.Errorf("%s defines flag -%s", f.path, name)
							}
						}
					}
				}
				return true
			})
		}
	})

	// One ranking plan (processSharded) beside the one math/big oracle
	// (ProcessCtx): a second lower-case process* method on core.Server,
	// or the retired term-striped plan named anywhere, is a plan growing
	// back. The plan builds its response in document order, row by row
	// of its shards: it calls no sort and declares no map.
	t.Run("one ranking plan, in document order", func(t *testing.T) {
		var plans []string
		var plan *ast.FuncDecl
		for _, f := range files {
			ast.Inspect(f.file, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == "processTermStriped" {
					t.Errorf("%s names processTermStriped", f.path)
				}
				return true
			})
			if f.test || path.Dir(f.path) != "internal/core" {
				continue
			}
			for _, decl := range f.file.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && receiver(fn) == "Server" && strings.HasPrefix(fn.Name.Name, "process") {
					plans = append(plans, fn.Name.Name)
					if fn.Name.Name == "processSharded" {
						plan = fn
					}
				}
			}
		}
		if len(plans) != 1 || plan == nil {
			t.Fatalf("core.Server declares the plans %v, want processSharded alone", plans)
		}
		ast.Inspect(plan.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.MapType:
				t.Errorf("processSharded declares a map")
			case *ast.CallExpr:
				switch fun := n.Fun.(type) {
				case *ast.Ident:
					if fun.Name == "sortDocScores" {
						t.Errorf("processSharded calls sortDocScores")
					}
				case *ast.SelectorExpr:
					if pkg, ok := fun.X.(*ast.Ident); ok && (pkg.Name == "sort" || pkg.Name == "slices" && strings.HasPrefix(fun.Sel.Name, "Sort")) {
						t.Errorf("processSharded calls %s.%s", pkg.Name, fun.Sel.Name)
					}
				}
			}
			return true
		})
	})
}

// flagDefiner reports whether a function of package flag (or a method
// of flag.FlagSet) by this name defines a flag.
func flagDefiner(name string) bool {
	switch strings.TrimSuffix(name, "Var") {
	case "Bool", "BoolFunc", "Duration", "Float64", "Func", "Int", "Int64", "String", "Text", "Uint", "Uint64", "":
		return true
	}
	return false
}
