package embellish

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The design's invariants over declarations: facts the simplifications
// established — a layout, a lever or a setting that is gone, a kernel
// that lives in one file — held by parsing the module's Go with
// go/parser, so a comment naming a retired identifier is no violation
// and a declaration under a new spelling of the same form is. bench/ is
// its own module but imports this one, so it is parsed too.
//
// Every fact is a row of the rules table, filed under the guard it
// belongs to, and TestSurface runs one subtest per guard. A new guard
// is a row, not a new walker.

// moduleFile is one parsed Go file of the module.
type moduleFile struct {
	path  string // slash-separated, relative to the module root
	file  *ast.File
	fset  *token.FileSet
	test  bool
	names map[position]token.Pos // every name the file holds, where it first appears
}

// parseModule parses every Go file of the module and of bench/, with
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
			if p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
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
		mf := moduleFile{path: filepath.ToSlash(p), file: f, fset: fset, test: strings.HasSuffix(name, "_test.go")}
		mf.names = positions(mf)
		files = append(files, mf)
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

// where is a set of the kinds of position a name is read from.
type where uint

const (
	ident   where = 1 << iota // any identifier
	decl                      // a top-level declaration, as declarations lists it
	field                     // a field of a struct declared in one of configFiles, embedded ones by their type's name
	setter                    // a func or method whose name starts with set or configure, in any case
	flagKey                   // the name of a flag defined under cmd/
	envKey                    // the key of an os.Getenv or os.LookupEnv call
	read                      // x.Name outside options.go, options_test.go and bench/
	tests                     // no position: the row holds in _test.go files too

	knob = field | setter | flagKey | envKey
)

var whereNames = map[where]string{ident: "identifier", decl: "declaration", field: "config field",
	setter: "setter", flagKey: "flag", envKey: "environment key", read: "read of"}

// position is one name at one kind of position.
type position struct {
	kind where
	name string
}

// configFiles declare the structs a setting would be a field of; the
// recursive query's is among them, for the partition window it no
// longer has.
var configFiles = []string{"options.go", "net.go", "internal/cluster/router.go", "internal/pir/recursive.go"}

// rule is one row: the guard it belongs to, the files or directories it
// reads ("" is the whole module), and its check.
type rule struct {
	guard string
	in    []string
	check func(t *testing.T, files []moduleFile)
}

var rules = []rule{
	// A segment holds its postings once, cut into the plan's runs: no
	// second, sharded copy of them, no wrapper to hang it on, and one
	// owner of the shard count (index.Live.SetSharding).
	retired("postings held once", decl|tests, "internal/index", `^(Sharded|Segment|NewSegment|ShardedView|ensureSharded|Index\.Shard)$`),
	retired("postings held once", decl|tests, "internal/core", `^Server\.SetSharding$`),
	// The execution schedule is derived from GOMAXPROCS (applyExecution),
	// never set: no method to set it, no flag, and nothing outside
	// options.go reads the four deprecated Options fields.
	retired("no execution-schedule setting", ident, "", `^Configure(Execution|PIRWorkers)$`),
	retired("no execution-schedule setting", flagKey|tests, "", `^(shards|window|workers|pir-workers)$`),
	retired("no execution-schedule setting", read|tests, "", `^(Shards|Parallelism|PrecomputeWindow|PIRWorkers)$`),
	// The width of Algorithm 5's fan-out is derived from GOMAXPROCS and
	// the candidate count, and the PIR decode's from GOMAXPROCS and the
	// answer's rows — never configured. A decryption's lane count is the
	// constant two of Decryptor.DecryptInts, not a setting either.
	retired("no decode worker-count setting", ident|tests, "", `(Decode|Decrypt)(Workers|Parallel|Lanes)`),
	retired("no decode worker-count setting", flagKey|envKey|tests, "", `(?i)(decode|decrypt)[-_]?(workers|parallel|lanes)`),
	// The register forms are chosen by the modulus — one dispatch on its
	// width in each of Mul, Exp and ExpPair for two words, one in Mul for
	// four — never configured: no selector, setter or flag names a kernel.
	retired("no Montgomery kernel selector", ident|tests, "", `UseGeneric|ForceGeneric|SetKernel`),
	retired("no Montgomery kernel selector", flagKey|envKey|tests, "", `(?i)generic|kernel`),
	count("no Montgomery kernel selector", "a test of len(m.n) against 2", "internal/mont/mont.go", 3, 3, exprs(`^len\(m\.n\) [=!]= 2$`)),
	count("no Montgomery kernel selector", "a test of len(m.n) against 4", "internal/mont/mont.go", 1, 1, exprs(`^len\(m\.n\) [=!]= 4$`)),
	// One multi-word CIOS loop (internal/mont) beside pir's inlined
	// one-word REDC forms: the REDC folding constant is multiplied in
	// those two files and nowhere else.
	only("the Montgomery kernel count", "a product with n0inv", exprs(`n0inv\S* \* |\* \S*n0inv`), "internal/mont/mont.go", "internal/pir/montgomery.go"),
	// One flat serving path each: the oracle, the flat executor and the
	// recursive executor. A fourth entry point is a plan growing back.
	count("the PIR entry-point count", "top-level ProcessColumns* funcs", "internal/pir", 1, 3, funcs("", "ProcessColumns")),
	// Every group of the recursive scan, the window edges included, folds
	// a subset table: an index shifted down by three (col[r>>3]&mask) is
	// the per-cell path growing back, and with it a branch on stored data.
	count("the recursive scan without a per-cell path", "an index shifted down by three", "internal/pir/recursive.go", 0, 0, exprs(`\[.* >> 3\]$`)),
	// One selection vector per document is how the flat fetch writes its
	// frames, not a mode, and a remote flat vector always travels as a
	// seed: nothing switches the rotation entries or the seeds off.
	retired("no rotation or seeding switch", ident, "", `SetFetchRotat|FetchRotation|PIRRotat|NoRotat|SetFetchSeed|SeededVector|NoSeed|PIRSeed`),
	retired("no rotation or seeding switch", knob|tests, "", `(?i)rotat|(fetch|no|pir)[-_]?seed|seeded`),
	// Every fetch opens with the hello and every answer is packed: there
	// is no second answer form and no params cache to turn off.
	retired("no params-cache or answer-form switch", knob|tests, "", `(?i)hello|pack|params[-_]?cache|answer[-_]?form`),
	// One request loop (internal/serve) serves the worker and the router:
	// it alone writes refusal frames — handlers return errors — and it
	// alone formats the unknown-type refusal. Types 10, 11 and 22 are
	// retired.
	only("the request pipeline", "a WriteError call", exprs(`(^|\.)WriteError\(`), "internal/serve/serve.go"),
	only("the request pipeline", "wire.UnknownTypeRefusal formatted", exprs(`^fmt\.\w+\(.*UnknownTypeRefusal|UnknownTypeRefusal \+ |\+ (\w+\.)?UnknownTypeRefusal`), "internal/serve/serve.go"),
	consts("the request pipeline", "internal/wire", "Type", 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 23),
	// One wire dialect: the fetch has a protocol floor (docs/WIRE.md), so
	// no fallback ladder, slow start, frozen refusal of an older form,
	// retired frame type, length-prefixed answer writer or one-query
	// round trip.
	retired("one wire dialect", ident, "", `fetchLadder|firstOK|PIRBatchRefusals|ParamsBodyRefusal|SeedRefusal|HeightsRefusal|TypePIRQuery|TypePIRResponse|runSequential|^WritePIRBatchAnswer$`),
	// One served path per frame: an admitted frame runs on the Montgomery
	// kernels or is refused before any work. No big.Int scan kernel, no
	// ranking fallback to the oracle, and no switch that makes a server
	// refuse type 23.
	retired("one served path per frame", ident, "", `^(bigKernel|scanKernel|ConfigurePIRRecursive|livePIRRecursive|errRecursiveRefused|recursiveOverride|validatePIRRecursive)$`),
	retired("one served path per frame", field, "", `^PIRRecursive$`),
	retired("one served path per frame", flagKey|tests, "", `^pir-recursive$`),
	count("one served path per frame", "a ProcessCtx call", "internal/core/parallel.go", 0, 0, exprs(`(^|\.)ProcessCtx\(`)),
	// A class view is transposed once per store snapshot: how a snapshot
	// serves, not a mode. Nothing turns the cache off or sizes it.
	retired("no transposition-cache switch", knob|tests, "", `(?i)transpos|pattern[-_]?cache`),
	// One ranking plan (processSharded, in parallel.go) beside the one
	// math/big oracle (ProcessCtx); the term-striped plan is retired. The
	// plan builds its response in document order, row by row of its
	// shards: its file calls no sort and declares no map.
	count("one ranking plan, in document order", "process* methods of Server", "internal/core", 1, 1, funcs("Server", "process")),
	count("one ranking plan, in document order", "Server.processSharded", "internal/core/parallel.go", 1, 1, funcs("Server", "processSharded")),
	retired("one ranking plan, in document order", ident|tests, "", `^processTermStriped$`),
	count("one ranking plan, in document order", "a map type", "internal/core/parallel.go", 0, 0, exprs(`^map\[`)),
	count("one ranking plan, in document order", "a sort call", "internal/core/parallel.go", 0, 0, exprs(`^(sortDocScores|sort\.\w+|slices\.Sort\w*)\(`)),
	// The plan fans out once per query: its workers plan the entries, meet
	// at a barrier and fold the shards in one pool, so a helper that starts
	// late lands in the fold rather than after a second fan-out.
	count("one fan-out per query", "a fanOut call", "internal/core/parallel.go", 1, 1, exprs(`(^|\.)fanOut\(`)),
	// One client path: an in-process search or fetch is a wire session
	// over an in-memory connection (Engine.dial). No local PIR transport,
	// batching loop or written-out fetch shape serves beside the wire's,
	// and no Client method runs the engine's ranking itself.
	retired("one client path", ident|tests, "", `^(localPIR|runBatched|viewing|fetchLocal|pirTransport)$`),
	count("one client path", "Client methods running the ranking", "", 0, 0, methodsWith("Client", exprs(`\.(Process|ProcessContext|processCoreCtx)$`))),
	// One routed fetch database: a router serves the flat fetch over class
	// views only, so nothing in internal/cluster names the recursive frame;
	// the recursive scan has no partition window, level-1-only mode or
	// router-side level 2; and every type-12 entry carries its view's
	// height, so there is no frame without heights.
	retired("one routed fetch database", ident, "internal/cluster", `^TypePIRRecursiveQuery$`),
	retired("one routed fetch database", ident|tests, "", `^(handlePIRRecursive|RecursiveLevel2|recursiveSpanError|errRecursive(Offset|Span)|withHeights|StatPIRRecursivePartials|PIRRecursivePartials)$`),
	retired("one routed fetch database", field, "internal/pir/recursive.go", `^(Offset|Span)$`),
	// One frame loop per fetch (exchange): a fetch sends its queries in as
	// few frames as the wire allows, each answered before the next is
	// written, so there is no pipeline window to set, no second read loop
	// for the recursive form and no goroutine in the fetch. bench/ still
	// calls the deprecated, ignored SetFetchPipeline.
	retired("one fetch frame loop", ident|tests, "", `^(pipelineDepth|fetchDepth|DefaultFetchPipeline|maxFetchPipeline|RunRecursive|commitPing)$`),
	retired("one fetch frame loop", flagKey|tests, "", `^fetch-pipeline$`),
	retired("one fetch frame loop", read|tests, "", `^SetFetchPipeline$`),
	count("one fetch frame loop", "a go statement", "retrieve.go", 0, 0, goStmt),
	// The key holder's log tables are keyed on the Montgomery form
	// (formTable): no byte-keyed map of canonical residues, and no
	// conversion out of the form to look a value up.
	retired("a log table keyed on the form", decl|tests, "internal/benaloh", `^(logTable|Decryptor\.key)$`),
}

// TestSurface holds the retired surface gone and the kernels in place.
func TestSurface(t *testing.T) {
	files := parseModule(t)

	// A row scoped to a file or directory that is no longer parsed (bench/
	// included), or a kind of position the walk no longer finds, would
	// pass without checking anything.
	t.Run("no vacuous guard", func(t *testing.T) {
		if len(rules) == 0 {
			t.Fatal("no rules")
		}
		scopes := append(slices.Clone(configFiles), "bench")
		for _, r := range rules {
			scopes = append(scopes, r.in...)
		}
		for _, in := range scopes {
			if !slices.ContainsFunc(files, func(f moduleFile) bool { return !f.test && within(f.path, in) }) {
				t.Errorf("%s is not among the parsed files", in)
			}
		}
		var kinds where
		for _, f := range files {
			for p := range f.names {
				kinds |= p.kind
			}
		}
		for kind, name := range whereNames {
			if kind != envKey && kinds&kind == 0 {
				t.Errorf("the walk finds no %s", name)
			}
		}
	})

	for i, r := range rules {
		if i > 0 && rules[i-1].guard == r.guard {
			continue // its guard's subtest runs it
		}
		t.Run(r.guard, func(t *testing.T) {
			for _, row := range rules {
				if row.guard == r.guard {
					row.check(t, files)
				}
			}
		})
	}
}

// retired: a name matching re at a position of the kinds w picks, in a
// file within in, is a retired knob or identifier growing back. A
// pattern anchored ^…$ matches whole names, any other a part of one.
func retired(guard string, w where, in, re string) rule {
	pattern := regexp.MustCompile(re)
	return rule{guard, []string{in}, func(t *testing.T, files []moduleFile) {
		for _, f := range files {
			if f.test && w&tests == 0 || !within(f.path, in) {
				continue
			}
			for p, pos := range f.names {
				if p.kind&w != 0 && pattern.MatchString(p.name) {
					t.Errorf("%s: %s %s matches the retired %s", f.fset.Position(pos), whereNames[p.kind], p.name, re)
				}
			}
		}
	}}
}

// count: the nodes match finds in the non-test files within in number
// between min and max.
func count(guard, what, in string, min, max int, match func(ast.Node) bool) rule {
	return rule{guard, []string{in}, func(t *testing.T, files []moduleFile) {
		n := 0
		for _, f := range files {
			if !f.test && within(f.path, in) {
				n += hits(f, match)
			}
		}
		if n < min || n > max {
			t.Errorf("%s holds %d of %s, want %d to %d", in, n, what, min, max)
		}
	}}
}

// only: the non-test files holding a node match finds are exactly in.
func only(guard, what string, match func(ast.Node) bool, in ...string) rule {
	return rule{guard, in, func(t *testing.T, files []moduleFile) {
		var got []string
		for _, f := range files {
			if !f.test && hits(f, match) > 0 {
				got = append(got, f.path)
			}
		}
		slices.Sort(got)
		if want := slices.Sorted(slices.Values(in)); !slices.Equal(got, want) {
			t.Errorf("%s in %v, want %v", what, got, want)
		}
	}}
}

// consts: the constants named prefix* in the non-test files within in
// hold exactly the values want, each read from its integer literal.
func consts(guard, in, prefix string, want ...int) rule {
	return rule{guard, []string{in}, func(t *testing.T, files []moduleFile) {
		var got []int
		for _, f := range files {
			if f.test || !within(f.path, in) {
				continue
			}
			for _, d := range f.file.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.CONST {
					continue
				}
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					for i, name := range vs.Names {
						if !strings.HasPrefix(name.Name, prefix) {
							continue
						}
						value := "iota"
						if i < len(vs.Values) {
							value = types.ExprString(vs.Values[i])
						}
						v, err := strconv.Atoi(value)
						if err != nil {
							t.Errorf("%s: %s = %s is not read by value", f.fset.Position(name.Pos()), name.Name, value)
						}
						got = append(got, v)
					}
				}
			}
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s: %s* constants hold %v, want %v", in, prefix, got, want)
		}
	}}
}

// within reports whether the file at p is in, or under the directory in.
func within(p, in string) bool { return in == "" || p == in || strings.HasPrefix(p, in+"/") }

// positions reads every name of f at every kind of position, with where
// it first appears (the package clause for a declaration).
func positions(f moduleFile) map[position]token.Pos {
	found := map[position]token.Pos{}
	add := func(kind where, name string, pos token.Pos) {
		if _, ok := found[position{kind, name}]; !ok {
			found[position{kind, name}] = pos
		}
	}
	for _, name := range declarations(f.file) {
		add(decl, name, f.file.Package)
	}
	config := slices.Contains(configFiles, f.path)
	cmd := strings.HasPrefix(f.path, "cmd/")
	exempt := f.path == "options.go" || f.path == "options_test.go" || within(f.path, "bench")
	ast.Inspect(f.file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			add(ident, n.Name, n.Pos())
		case *ast.FuncDecl:
			if name := strings.ToLower(n.Name.Name); strings.HasPrefix(name, "set") || strings.HasPrefix(name, "configure") {
				add(setter, n.Name.Name, n.Name.Pos())
			}
		case *ast.StructType:
			if !config {
				break
			}
			for _, fl := range n.Fields.List {
				for _, name := range fl.Names { // every name of a multi-name field list
					add(field, name.Name, name.Pos())
				}
				if len(fl.Names) == 0 { // an embedded field promotes its type's name
					add(field, typeName(fl.Type), fl.Type.Pos())
				}
			}
		case *ast.SelectorExpr:
			if !exempt {
				add(read, n.Sel.Name, n.Sel.Pos())
			}
		case *ast.CallExpr:
			// A flag's name and an environment key are the call's first
			// string literal.
			sel, ok := n.Fun.(*ast.SelectorExpr)
			i := slices.IndexFunc(n.Args, func(a ast.Expr) bool {
				lit, ok := a.(*ast.BasicLit)
				return ok && lit.Kind == token.STRING
			})
			if !ok || i < 0 {
				break
			}
			key, _ := strconv.Unquote(n.Args[i].(*ast.BasicLit).Value)
			if fn := types.ExprString(sel); fn == "os.Getenv" || fn == "os.LookupEnv" {
				add(envKey, key, n.Args[i].Pos())
			} else if cmd && flagDefiner(sel.Sel.Name) {
				add(flagKey, key, n.Args[i].Pos())
			}
		}
		return true
	})
	return found
}

// hits counts the nodes of f that match finds.
func hits(f moduleFile, match func(ast.Node) bool) (n int) {
	ast.Inspect(f.file, func(node ast.Node) bool {
		if node != nil && match(node) {
			n++
		}
		return true
	})
	return n
}

// exprs matches an expression whose source, as go/types prints it,
// matches re.
func exprs(re string) func(ast.Node) bool {
	source := regexp.MustCompile(re)
	return func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		return ok && source.MatchString(types.ExprString(e))
	}
}

// goStmt matches a go statement.
func goStmt(n ast.Node) bool {
	_, ok := n.(*ast.GoStmt)
	return ok
}

// methodsWith matches a method of recv whose body holds a node match
// finds.
func methodsWith(recv string, match func(ast.Node) bool) func(ast.Node) bool {
	return func(n ast.Node) bool {
		fn, ok := n.(*ast.FuncDecl)
		if !ok || receiver(fn) != recv || fn.Body == nil {
			return false
		}
		found := false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			found = found || n != nil && match(n)
			return !found
		})
		return found
	}
}

// funcs matches a method of recv ("" a function) whose name starts with
// prefix.
func funcs(recv, prefix string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		fn, ok := n.(*ast.FuncDecl)
		return ok && receiver(fn) == recv && strings.HasPrefix(fn.Name.Name, prefix)
	}
}

// receiver returns the type name a method is declared on, generic
// receivers included ("" for a function).
func receiver(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	return typeName(fn.Recv.List[0].Type)
}

// typeName returns the name of the type typ names, through a pointer,
// type arguments and a package qualifier.
func typeName(typ ast.Expr) string {
	for {
		switch t := typ.(type) {
		case *ast.StarExpr:
			typ = t.X
		case *ast.IndexExpr:
			typ = t.X
		case *ast.IndexListExpr:
			typ = t.X
		case *ast.SelectorExpr:
			return t.Sel.Name
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
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

// TestSurfaceReceiver holds receiver to the type a method is declared
// on, through a pointer and type parameters.
func TestSurfaceReceiver(t *testing.T) {
	for _, c := range []struct{ decl, want string }{
		{"func (s *T[S]) m() {}", "T"},
		{"func (s T[A, B]) m() {}", "T"},
		{"func (s *T) m() {}", "T"},
		{"func (T) m() {}", "T"},
		{"func m() {}", ""},
	} {
		f, err := parser.ParseFile(token.NewFileSet(), "p.go", "package p\n"+c.decl, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := receiver(f.Decls[0].(*ast.FuncDecl)); got != c.want {
			t.Errorf("receiver(%s) = %q, want %q", c.decl, got, c.want)
		}
	}
}

// flagDefiner reports whether a function of package flag (or a method
// of flag.FlagSet) by this name defines a flag.
func flagDefiner(name string) bool {
	return slices.Contains([]string{"Bool", "BoolFunc", "Duration", "Float64", "Func", "Int", "Int64", "String", "Text", "Uint", "Uint64", ""},
		strings.TrimSuffix(name, "Var"))
}
