package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The knob census. Everything outside the paper's algorithms must earn its
// place, and a settable value is where an unearned one hides: code that
// runs only when somebody sets it. TestKnobCensus lists every settable value
// in the module's non-test Go:
//
//   - each exported field of an exported struct type named *Options,
//     *Config or Policy;
//   - each With* constructor of the facade's Option in mmdb.go;
//   - each flag registration under cmd/;
//   - each os.Getenv or os.LookupEnv read.
//
// and compares that list exactly with testdata/knobs.txt. Each line there is
//
//	<kind> <name> | <default> | <evidence>, <evidence>...
//
// A flag's default is the registration's default expression as written;
// the others are said in words. Evidence items are a test, fuzz target,
// benchmark or example name that exists in the module, bench:<name> for a
// BENCHMARK.json workload or metric row, readme:<text> for an operator need
// README.md states (it must contain the text), seam for a test or
// composition hook, and arg for a one-shot CLI argument. A line's evidence
// is written by a person, so a failure prints the missing lines with ? in
// place of what only a person can say, and ? is not evidence.

// knobsFile is the committed census, relative to this package.
const knobsFile = "testdata/knobs.txt"

// knob is one settable value found in the tree. def is the source default
// of a flag and empty for the other kinds.
type knob struct {
	key, def string
}

// flagParams gives, per flag registration method, the argument index of
// the flag's name and of its default (-1: the method takes none).
var flagParams = map[string][2]int{
	"String": {0, 1}, "Int": {0, 1}, "Int64": {0, 1}, "Uint": {0, 1}, "Uint64": {0, 1},
	"Bool": {0, 1}, "Float64": {0, 1}, "Duration": {0, 1},
	"StringVar": {1, 2}, "IntVar": {1, 2}, "Int64Var": {1, 2}, "UintVar": {1, 2}, "Uint64Var": {1, 2},
	"BoolVar": {1, 2}, "Float64Var": {1, 2}, "DurationVar": {1, 2}, "TextVar": {1, 2},
	"Var": {1, -1}, "Func": {0, -1}, "BoolFunc": {0, -1},
}

func TestKnobCensus(t *testing.T) {
	root := filepath.Join("..", "..")
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	found, testNames, problems := censusTree(root)
	for _, p := range problems {
		t.Error(p)
	}
	rows, err := benchRows(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(knobsFile)
	if err != nil {
		t.Error(err) // and list every knob as missing
	}

	listed := map[string]bool{}
	var stale []string
	for n, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		at := fmt.Sprintf("%s:%d", knobsFile, n+1)
		cols := strings.Split(line, " | ")
		if len(cols) != 3 {
			t.Errorf("%s: want `<kind> <name> | <default> | <evidence>`, got %q", at, line)
			continue
		}
		key, def, evidence := cols[0], cols[1], cols[2]
		if listed[key] {
			t.Errorf("%s: %s listed twice", at, key)
		}
		listed[key] = true
		k, ok := found[key]
		if !ok {
			stale = append(stale, line)
			continue
		}
		switch {
		case def == "" || def == "?":
			t.Errorf("%s: %s has no default", at, key)
		case k.def != "" && def != k.def:
			t.Errorf("%s: %s defaults to %s in the source, not %s", at, key, k.def, def)
		}
		for _, e := range strings.Split(evidence, ", ") {
			if msg := checkEvidence(e, testNames, rows, string(readme)); msg != "" {
				t.Errorf("%s: %s: %s", at, key, msg)
			}
		}
	}

	var missing []string
	for key, k := range found {
		if listed[key] {
			continue
		}
		def := k.def
		if def == "" {
			def = "?"
		}
		missing = append(missing, key+" | "+def+" | ?")
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("%s lacks %d settable value(s); add each line with its default and evidence:\n%s",
			knobsFile, len(missing), strings.Join(missing, "\n"))
	}
	if len(stale) > 0 {
		t.Errorf("%s lists %d knob(s) the tree no longer has; delete:\n%s",
			knobsFile, len(stale), strings.Join(stale, "\n"))
	}
	t.Logf("census: %d settable values", len(found))
}

// evidenceTest matches the names a _test.go file can define.
var evidenceTest = regexp.MustCompile(`^(Test|Fuzz|Benchmark|Example)\w*$`)

// checkEvidence returns why e is not evidence, or "" when it is.
func checkEvidence(e string, testNames, rows map[string]bool, readme string) string {
	switch {
	case e == "seam" || e == "arg":
		return ""
	case strings.HasPrefix(e, "bench:"):
		if !rows[strings.TrimPrefix(e, "bench:")] {
			return fmt.Sprintf("%s: BENCHMARK.json has no such workload or metric", e)
		}
	case strings.HasPrefix(e, "readme:"):
		text := strings.TrimPrefix(e, "readme:")
		if text == "" || !strings.Contains(readme, text) {
			return fmt.Sprintf("%s: README.md does not say %q", e, text)
		}
	case evidenceTest.MatchString(e):
		if !testNames[e] {
			return fmt.Sprintf("%s: no such test function in the module", e)
		}
	default:
		return fmt.Sprintf("%q is not evidence (a test name, bench:<row>, readme:<text>, seam or arg)", e)
	}
	return ""
}

// benchRows returns the workload and metric names of BENCHMARK.json.
func benchRows(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	rows := map[string]bool{}
	for _, list := range [][]struct{ Name string }{m.Workloads, m.EndToEnd, m.PerLayer} {
		for _, r := range list {
			rows[r.Name] = true
		}
	}
	return rows, nil
}

// censusTree parses the module under root, skipping testdata, hidden
// directories and nested modules (the benchmark harness is its own). It
// returns the settable values of the non-test files, the function names
// the test files define, and the keys it found twice or the walk's error.
func censusTree(root string) (map[string]knob, map[string]bool, []string) {
	found := map[string]knob{}
	testNames := map[string]bool{}
	var problems []string
	add := func(k knob, pos token.Position) {
		if _, dup := found[k.key]; dup {
			problems = append(problems, fmt.Sprintf("%s: %s is declared twice; the census cannot tell the two apart", pos, k.key))
		}
		found[k.key] = k
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if file == root {
				return nil
			}
			if _, err := os.Stat(filepath.Join(file, "go.mod")); err == nil || name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") {
			return nil
		}
		src, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, file, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasSuffix(file, "_test.go") {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					testNames[fn.Name.Name] = true
				}
			}
			return nil
		}
		rel, err := filepath.Rel(root, file)
		if err != nil {
			return err
		}
		censusFile(fset, f, src, filepath.ToSlash(rel), add)
		return nil
	})
	if err != nil {
		problems = append(problems, err.Error())
	}
	return found, testNames, problems
}

// censusFile adds the settable values one non-test file declares; rel is
// its slash path from the module root.
func censusFile(fset *token.FileSet, f *ast.File, src []byte, rel string, add func(knob, token.Position)) {
	pkg := f.Name.Name
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() || !knobStruct(ts.Name.Name) {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					for _, name := range fieldNames(field) {
						if ast.IsExported(name) {
							add(knob{key: "field " + pkg + "." + ts.Name.Name + "." + name}, fset.Position(field.Pos()))
						}
					}
				}
			}
		case *ast.FuncDecl:
			if rel == "mmdb.go" && d.Recv == nil && strings.HasPrefix(d.Name.Name, "With") && returnsIdent(d.Type, "Option") {
				add(knob{key: "option " + pkg + "." + d.Name.Name}, fset.Position(d.Pos()))
			}
			if strings.HasPrefix(rel, "cmd/") && d.Body != nil {
				censusFlags(fset, d, src, path.Base(path.Dir(rel)), add)
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 || !isSelector(call.Fun, "os", "Getenv") && !isSelector(call.Fun, "os", "LookupEnv") {
			return true
		}
		add(knob{key: "env " + nameOf(fset, src, call.Args[0])}, fset.Position(call.Pos()))
		return true
	})
}

// censusFlags adds the flags one function of a command registers, keyed by
// the command's directory and the function, since subcommands reuse names.
func censusFlags(fset *token.FileSet, fn *ast.FuncDecl, src []byte, cmd string, add func(knob, token.Position)) {
	sets := map[string]bool{"flag": true}
	for _, p := range fn.Type.Params.List {
		if star, ok := p.Type.(*ast.StarExpr); ok && isSelector(star.X, "flag", "FlagSet") {
			for _, n := range p.Names {
				sets[n.Name] = true
			}
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			if call, ok := as.Rhs[0].(*ast.CallExpr); ok && isSelector(call.Fun, "flag", "NewFlagSet") {
				if id, ok := as.Lhs[0].(*ast.Ident); ok {
					sets[id.Name] = true
				}
			}
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		recv, ok := sel.X.(*ast.Ident)
		params, isFlag := flagParams[sel.Sel.Name]
		if !ok || !sets[recv.Name] || !isFlag || len(call.Args) <= params[0] {
			return true
		}
		k := knob{key: "flag " + cmd + "." + fn.Name.Name + " -" + nameOf(fset, src, call.Args[params[0]]), def: "(none)"}
		if params[1] >= 0 {
			k.def = srcText(fset, src, call.Args[params[1]])
		}
		add(k, fset.Position(call.Pos()))
		return true
	})
}

// knobStruct reports whether a type name marks a struct of settings.
func knobStruct(name string) bool {
	return strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config") || name == "Policy"
}

// fieldNames returns a field's names, or its type's name when embedded.
func fieldNames(field *ast.Field) []string {
	if len(field.Names) > 0 {
		names := make([]string, len(field.Names))
		for i, n := range field.Names {
			names[i] = n.Name
		}
		return names
	}
	t := field.Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch t := t.(type) {
	case *ast.Ident:
		return []string{t.Name}
	case *ast.SelectorExpr:
		return []string{t.Sel.Name}
	}
	return nil
}

// returnsIdent reports whether a function returns exactly one value of the
// named local type.
func returnsIdent(ft *ast.FuncType, name string) bool {
	if ft.Results == nil || len(ft.Results.List) != 1 || len(ft.Results.List[0].Names) > 1 {
		return false
	}
	id, ok := ft.Results.List[0].Type.(*ast.Ident)
	return ok && id.Name == name
}

// isSelector reports whether e is the selector pkg.name.
func isSelector(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg
}

// nameOf returns the value of a string literal, or the expression's source
// in braces when the name is computed (one esidb-lint flag per analyzer).
func nameOf(fset *token.FileSet, src []byte, e ast.Expr) string {
	if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
		if s, err := strconv.Unquote(lit.Value); err == nil {
			return s
		}
	}
	return "{" + srcText(fset, src, e) + "}"
}

// srcText returns an expression as written.
func srcText(fset *token.FileSet, src []byte, e ast.Expr) string {
	return string(src[fset.Position(e.Pos()).Offset:fset.Position(e.End()).Offset])
}
