// Package lint is ESTOCADA's repo-specific static-analysis suite: a
// dependency-free analyzer driver (stdlib go/parser + go/types with the
// source importer — no x/tools, matching the module's zero-dependency
// stance) plus a set of analyzers that machine-check the codebase's
// hand-enforced hot-path and concurrency invariants — in-band batch
// errors, execution-context propagation, copy-on-write store snapshots,
// typed sentinel errors, zero-alloc hot paths. Every invariant
// here shipped at least one hand-review miss before it became a rule (see
// ARCHITECTURE.md "Static analysis"); encoding them keeps the next
// structural PR from re-introducing the same bug class.
//
// The driver loads every package of the module once, type-checks it, and
// runs each analyzer over the packages in its scope. Findings render as
// "file:line:col: [rule] message" and make the driver exit non-zero.
// Suppressions are explicit: "//lint:ignore <rule> <reason>" on the
// finding's line or the line above silences exactly that rule there; a
// bare ignore without a reason is itself a finding (ignore-hygiene).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one analyzer report.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String renders the canonical file:line:col: [rule] message form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// Analyzer is one rule of the suite.
type Analyzer struct {
	// Name is the rule identifier used in reports and ignore directives.
	Name string
	// Doc is a one-line description of the invariant the rule encodes.
	Doc string
	// Scope lists module-relative package prefixes ("internal/exec") the
	// rule applies to; empty means every package. Packages outside the
	// module (fixtures) are always in scope, so rule tests exercise the
	// analyzer without living under the guarded trees.
	Scope []string
	// Run reports the rule's findings for one package.
	Run func(p *Pkg) []Finding
}

// inScope reports whether the analyzer applies to a package path.
func (a *Analyzer) inScope(p *Pkg) bool {
	mod := p.prog.Module + "/"
	if !strings.HasPrefix(p.Path, mod) && p.Path != p.prog.Module {
		return true // fixture package: always analyze
	}
	if len(a.Scope) == 0 {
		return true
	}
	rel := strings.TrimPrefix(p.Path, mod)
	for _, s := range a.Scope {
		if rel == s || strings.HasPrefix(rel, s+"/") {
			return true
		}
	}
	return false
}

// Pkg is one loaded, type-checked package.
type Pkg struct {
	Path  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	prog       *Program
	directives []directive
}

// Prog returns the owning program (cross-package type lookups).
func (p *Pkg) Prog() *Program { return p.prog }

// Fset returns the shared file set.
func (p *Pkg) Fset() *token.FileSet { return p.prog.Fset }

// Module reports whether the package belongs to the loaded module (as
// opposed to a fixture loaded by the tests).
func (p *Pkg) Module() bool {
	return p.Path == p.prog.Module || strings.HasPrefix(p.Path, p.prog.Module+"/")
}

// findingf appends a formatted finding at a node's position.
func (p *Pkg) findingf(out []Finding, rule string, at ast.Node, format string, args ...any) []Finding {
	return append(out, Finding{
		Pos:  p.prog.Fset.Position(at.Pos()),
		Rule: rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// Check runs the analyzers over the packages, applies suppression
// directives, and returns the surviving findings sorted by position.
func Check(pkgs []*Pkg, analyzers []*Analyzer) []Finding {
	var out []Finding
	for _, p := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil || !a.inScope(p) {
				continue
			}
			for _, f := range a.Run(p) {
				if !p.suppressed(f) {
					out = append(out, f)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return out
}

// suppressed reports whether a well-formed ignore directive covers the
// finding: same rule, on the finding's line or the line directly above,
// in the same file, with a non-empty reason.
func (p *Pkg) suppressed(f Finding) bool {
	for _, d := range p.directives {
		if d.kind != "ignore" || d.rule != f.Rule || d.reason == "" {
			continue
		}
		if d.pos.Filename != f.Pos.Filename {
			continue
		}
		if d.pos.Line == f.Pos.Line || d.pos.Line == f.Pos.Line-1 {
			return true
		}
	}
	return false
}

// --- shared type helpers -------------------------------------------------

// errorType is the universe error interface.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t is error or implements it.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorType) || types.Identical(t, errorType.Underlying())
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (method or package function), or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// namedRecv returns the named type of a method's receiver, unwrapping one
// pointer, or nil.
func namedRecv(f *types.Func) *types.Named {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// lookupNamed resolves a named type from a loaded package, or nil.
func (prog *Program) lookupNamed(pkgPath, name string) *types.Named {
	p, ok := prog.Pkgs[pkgPath]
	if !ok {
		return nil
	}
	obj := p.Types.Scope().Lookup(name)
	if obj == nil {
		return nil
	}
	n, _ := obj.Type().(*types.Named)
	return n
}

// funcUnits collects every function body in the file as an independent
// unit: declarations and closure literals. Closures are separate units so
// per-function dataflow heuristics (pooled-batch pairing) do not mix a
// closure's paths with its parent's.
type funcUnit struct {
	decl *ast.FuncDecl // nil for closures
	body *ast.BlockStmt
}

func funcUnits(file *ast.File) []funcUnit {
	var units []funcUnit
	ast.Inspect(file, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			if x.Body != nil {
				units = append(units, funcUnit{decl: x, body: x.Body})
			}
		case *ast.FuncLit:
			units = append(units, funcUnit{body: x.Body})
		}
		return true
	})
	return units
}

// inspectShallow walks n without descending into closure literals.
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok && c != n {
			return false
		}
		return fn(c)
	})
}
