package analysis

import (
	"fmt"
	"go/types"
)

// StrictDiagnostics converts silent loader degradation into findings;
// rcclint always adds them. Two degradation modes exist: an import the
// loader could not resolve at all (replaced by an empty placeholder
// package, loader-wide), and a package whose own type check reported errors
// (analysis continued on partial information). The analyzers cannot tell;
// each becomes a diagnostic with the pseudo-analyzer name "strict", and the
// run fails.
func StrictDiagnostics(l *Loader, pkgs []*Package) []Diagnostic {
	var out []Diagnostic
	for _, ip := range l.Placeholders() {
		out = append(out, Diagnostic{
			Analyzer: "strict",
			File:     ip,
			Message:  "import degraded to an empty placeholder package; type-aware checks were skipped for everything touching it",
		})
	}
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) == 0 {
			continue
		}
		d := Diagnostic{
			Analyzer: "strict",
			File:     pkg.ImportPath,
			Message: fmt.Sprintf("package type-checked with %d error(s); analyzers ran on partial type information (first: %v)",
				len(pkg.TypeErrors), pkg.TypeErrors[0]),
		}
		// types.Error carries a position; use it so the finding lands on
		// the offending line instead of the package.
		if te, ok := pkg.TypeErrors[0].(types.Error); ok && te.Fset != nil {
			p := te.Fset.Position(te.Pos)
			d.File, d.Line, d.Col = p.Filename, p.Line, p.Column
			d.Message = fmt.Sprintf("package %s type-checked with %d error(s); analyzers ran on partial type information (first: %s)",
				pkg.ImportPath, len(pkg.TypeErrors), te.Msg)
		}
		out = append(out, d)
	}
	return out
}
