// Package analysis is rcclint's static-analysis framework: a stdlib-only
// loader (go/parser + go/types with a chain importer, no go/packages) plus
// the analyzers for the bug classes nothing cheaper catches — a lock-order
// cycle across packages (lockorder), metric-name hygiene that dashboards and
// the benchmark read by name (metricnames), and wall-clock reads in code
// that must replay under the virtual clock (wallclock). Each earns its place
// with a mutant of today's tree that only it flags (mutant_test.go); the
// executor's tests, -race and typed atomics cover the classes whose
// analyzers were deleted (DESIGN.md §8).
//
// Findings carry file:line:col positions and fail the build (cmd/rcclint
// exits non-zero on any finding). Individual findings are suppressed with a
// comment on the flagged line or the line above it:
//
//	//rcclint:ignore <analyzer> <reason>
//
// The reason is mandatory and the analyzer name must be one of the known
// analyzers; a malformed or unknown-analyzer directive is itself a finding.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned at file:line:col.
type Diagnostic struct {
	Analyzer string
	File     string
	Line     int
	Col      int
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}

// Reporter accumulates diagnostics for one analyzer.
type Reporter struct {
	analyzer string
	fset     *token.FileSet
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (r *Reporter) Reportf(pos token.Pos, format string, args ...any) {
	p := r.fset.Position(pos)
	*r.diags = append(*r.diags, Diagnostic{
		Analyzer: r.analyzer,
		File:     p.Filename,
		Line:     p.Line,
		Col:      p.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Pass hands one package to one analyzer.
type Pass struct {
	*Reporter
	Pkg *Package
}

// Analyzer is one named check. Run is invoked once per package; Finish, if
// non-nil, once after every package has been seen (for cross-package checks
// such as lock-order cycles and duplicate metric registrations). Analyzers
// carry state between Run calls, so each lint run must use fresh instances
// (see Analyzers).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
	// Finish runs after all packages; the Reporter positions findings with
	// token.Pos values captured during Run (the FileSet is shared).
	Finish func(*Reporter)
}

// Analyzers returns a fresh instance of every analyzer, in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{NewLockOrder(), NewMetricNames(), NewWallClock()}
}

// ignoreDirective is one parsed //rcclint:ignore comment.
type ignoreDirective struct {
	analyzer string
	reason   string
	file     string
	line     int
	col      int
	bad      string // non-empty if the directive itself is malformed
}

const directivePrefix = "//rcclint:ignore"

// collectDirectives scans every file's comments for ignore directives.
func collectDirectives(pkgs []*Package, known map[string]bool) []ignoreDirective {
	var out []ignoreDirective
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, directivePrefix) {
						continue
					}
					p := pkg.Fset.Position(c.Pos())
					d := ignoreDirective{file: p.Filename, line: p.Line, col: p.Column}
					rest := strings.TrimPrefix(c.Text, directivePrefix)
					fields := strings.Fields(rest)
					switch {
					case len(fields) == 0:
						d.bad = "missing analyzer name and reason"
					case len(fields) == 1:
						d.analyzer = fields[0]
						d.bad = "missing reason"
					default:
						d.analyzer = fields[0]
						d.reason = strings.Join(fields[1:], " ")
					}
					if d.bad == "" && !known[d.analyzer] {
						d.bad = fmt.Sprintf("unknown analyzer %q", d.analyzer)
					}
					out = append(out, d)
				}
			}
		}
	}
	return out
}

// Run applies the analyzers to the packages, resolves ignore directives and
// returns the surviving findings sorted by position. A directive suppresses
// findings of its analyzer on the directive's own line or the line directly
// below it; malformed or unknown-analyzer directives become findings under
// the pseudo-analyzer name "rcclint".
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	if len(pkgs) == 0 {
		return diags
	}
	fset := pkgs[0].Fset
	reporters := make([]*Reporter, len(analyzers))
	for i, a := range analyzers {
		reporters[i] = &Reporter{analyzer: a.Name, fset: fset, diags: &diags}
		for _, pkg := range pkgs {
			a.Run(&Pass{Reporter: reporters[i], Pkg: pkg})
		}
	}
	for i, a := range analyzers {
		if a.Finish != nil {
			a.Finish(reporters[i])
		}
	}

	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	directives := collectDirectives(pkgs, known)

	kept := diags[:0]
	for _, d := range diags {
		suppressed := false
		for _, dir := range directives {
			if dir.bad == "" && dir.analyzer == d.Analyzer && dir.file == d.File &&
				(dir.line == d.Line || dir.line == d.Line-1) {
				suppressed = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	diags = kept
	for _, dir := range directives {
		if dir.bad != "" {
			diags = append(diags, Diagnostic{
				Analyzer: "rcclint",
				File:     dir.file,
				Line:     dir.line,
				Col:      dir.col,
				Message:  fmt.Sprintf("bad ignore directive: %s (want //rcclint:ignore <analyzer> <reason>)", dir.bad),
			})
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}
