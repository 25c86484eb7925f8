// Package analysis is the project's custom static-analyzer suite
// (esidb-lint). The paper's correctness guarantees rest on code-level
// invariants the Go compiler cannot see — Table 1 must have a rule for
// every editing operation, bounds are ordered [min, max] pairs derived from
// the bin total, BWM's widening classification consults the same op
// taxonomy as RBM, mutex-guarded state is only touched under its mutex, and
// contexts thread into the WAL's group-commit waits. The distributed
// layer adds its own conventions: atomics are never mixed with plain
// access, named mutexes keep one package-wide acquisition order, the
// replicator publishes state only through epoch-checked helpers, every
// HTTP failure ships the /v1 error envelope with an approved code, and
// sentinel errors are matched with errors.Is/errors.As. Each invariant is
// enforced by one analyzer; DESIGN.md §8 and §13 document what every check
// protects in paper terms.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) but is built purely on the standard
// library's go/ast and go/types, because this repository is dependency-free
// by construction. cmd/esidb-lint drives the analyzers both standalone and
// as a `go vet -vettool` backend.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// `//lint:ignore <name> <reason>` suppression directives.
	Name string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc string
	// Run inspects the package in pass and reports violations through
	// pass.Reportf.
	Run func(pass *Pass)
}

// Pass carries one package's parsed and type-checked state through an
// analyzer run.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps token positions back to file/line/column.
	Fset *token.FileSet
	// Files are the package's syntax trees that diagnostics may be
	// reported against. Test files are excluded: the invariants guard
	// production code, and test helpers routinely construct adversarial
	// values on purpose.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo resolves expression types, identifier uses and selections.
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// All returns the full analyzer suite in stable order: the original five
// core-engine invariants, then the wave-2 concurrency and wire-contract
// checks that patrol the distributed layer.
func All() []*Analyzer {
	return []*Analyzer{
		OpSwitch,
		LockGuard,
		BoundOrder,
		CtxFlow,
		TraceNil,
		AtomicGuard,
		EpochGuard,
		ErrCmp,
		ErrEnvelope,
	}
}

// ByName resolves analyzer names (comma-separated lists accepted) against
// the suite, erroring on unknown names.
func ByName(names []string) ([]*Analyzer, error) {
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		for _, name := range strings.Split(n, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			a, ok := byName[name]
			if !ok {
				return nil, fmt.Errorf("analysis: unknown analyzer %q", name)
			}
			out = append(out, a)
		}
	}
	return out, nil
}

// RunPackage executes the analyzers over one package and returns the
// surviving diagnostics (suppressions applied) sorted by position.
func RunPackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		a.Run(pass)
	}
	diags = applySuppressions(fset, files, diags)
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}

// NewTypesInfo allocates the full set of maps the analyzers rely on.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}
