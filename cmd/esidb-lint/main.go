// Command esidb-lint checks the project-specific invariants of the
// edited-sequence image database: operation-taxonomy exhaustiveness
// (opswitch), guarded-field lock discipline and package-wide lock ordering
// (lockguard), bound-interval ordering (boundorder), context propagation
// into WAL commit waits (ctxflow), the nil-safe trace contract (tracenil),
// all-atomic-or-none field access (atomicguard), the replicator's
// epoch-checked publication contract (epochguard), errors.Is/As discipline
// (errcmp), and the /v1 error-envelope wire contract with approved code
// slugs (errenvelope). See internal/analysis and DESIGN.md §8/§13.
//
// It runs in two modes:
//
//	esidb-lint [-opswitch] [...] [packages]       # standalone, defaults to ./...
//	go vet -vettool=$(command -v esidb-lint) ./...  # unitchecker protocol
//
// In standalone mode the tool loads packages itself (via `go list -export`)
// and prints one line per finding. Under go vet it speaks the unitchecker
// config protocol: -V=full, -flags, and one *.cfg argument per package.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix(progname() + ": ")

	flag.Var(versionFlag{}, "V", "print version and exit")
	printflags := flag.Bool("flags", false, "print analyzer flags in JSON")
	jsonOut := flag.Bool("json", false, "emit JSON output instead of plain text")
	enable := make(map[string]*bool)
	for _, a := range analysis.All() {
		enable[a.Name] = flag.Bool(a.Name, false, firstLine(a.Doc))
	}
	flag.Parse()

	if *printflags {
		printFlagsJSON()
		return
	}

	var selected []string
	for name, on := range enable {
		if *on {
			selected = append(selected, name)
		}
	}
	sort.Strings(selected)
	analyzers := analysis.All()
	if len(selected) > 0 {
		var err error
		if analyzers, err = analysis.ByName(selected); err != nil {
			log.Fatal(err)
		}
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		runUnit(args[0], analyzers, *jsonOut) // exits
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	os.Exit(runStandalone(args, analyzers, *jsonOut))
}

func progname() string { return filepath.Base(os.Args[0]) }

func firstLine(doc string) string {
	if i := strings.IndexByte(doc, '\n'); i >= 0 {
		return doc[:i]
	}
	return doc
}

// runStandalone loads the named package patterns with the module-aware
// loader and reports findings; the exit code is 1 when anything fired.
func runStandalone(patterns []string, analyzers []*analysis.Analyzer, jsonOut bool) int {
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		log.Fatal(err)
	}
	tree := make(jsonTree)
	exit := 0
	for _, pkg := range pkgs {
		diags := analysis.RunPackage(pkg.Fset, pkg.Files, pkg.Types, pkg.Info, analyzers)
		for _, d := range diags {
			exit = 1
			if jsonOut {
				tree.add(pkg.Path, d.Analyzer, pkg.Fset.Position(d.Pos).String(), d.Message)
			} else {
				fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
			}
		}
	}
	if jsonOut {
		tree.print(os.Stdout)
		return 0
	}
	return exit
}

// versionFlag implements the -V=full protocol required by "go vet": the
// tool prints a line ending in a content hash of its own executable so the
// build system can cache vet results against the tool version.
type versionFlag struct{}

func (versionFlag) IsBoolFlag() bool { return true }
func (versionFlag) String() string   { return "" }

func (versionFlag) Set(s string) error {
	if s != "full" {
		log.Fatalf("unsupported flag value: -V=%s (use -V=full)", s)
	}
	prog, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(prog)
	if err != nil {
		log.Fatal(err)
	}
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", progname(), string(h.Sum(nil)))
	os.Exit(0)
	return nil
}

// printFlagsJSON answers "go vet"'s -flags query: the set of flags the
// driver may forward to this tool.
func printFlagsJSON() {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var flags []jsonFlag
	flag.VisitAll(func(f *flag.Flag) {
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		isBool := ok && b.IsBoolFlag()
		flags = append(flags, jsonFlag{f.Name, isBool, f.Usage})
	})
	data, err := json.MarshalIndent(flags, "", "\t")
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(data)
}

// jsonTree mirrors the x/tools JSONTree shape: package → analyzer →
// diagnostics.
type jsonTree map[string]map[string][]jsonDiagnostic

type jsonDiagnostic struct {
	Posn    string `json:"posn"`
	Message string `json:"message"`
}

func (t jsonTree) add(pkgID, analyzer, posn, message string) {
	byAnalyzer := t[pkgID]
	if byAnalyzer == nil {
		byAnalyzer = make(map[string][]jsonDiagnostic)
		t[pkgID] = byAnalyzer
	}
	byAnalyzer[analyzer] = append(byAnalyzer[analyzer], jsonDiagnostic{posn, message})
}

func (t jsonTree) print(w io.Writer) {
	data, err := json.MarshalIndent(t, "", "\t")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(w, "%s\n", data)
}
