package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// NewMetricNames builds the metricnames analyzer, the AST-accurate
// replacement for the old scripts/metrics_lint.sh grep: it finds every
// Registry.Counter/Gauge/Histogram/*Vec registration, resolves constant and
// concatenated name arguments (via go/types constant folding), and
// enforces:
//
//   - names and *Vec label keys are lowercase_snake ([a-z][a-z0-9_]*)
//   - Counter/CounterVec names end in _total (the convention every SLO and
//     span counter follows; a counter without it reads as a gauge)
//   - a name is registered from a single source file (the same literal in
//     two files means two subsystems fighting over one name)
//   - a name keeps a single instrument kind
//   - name arguments are compile-time constants (dynamic names cannot be
//     linted and defeat the single-registration-site rule)
func NewMetricNames() *Analyzer {
	mn := &metricNames{regs: map[string][]metricReg{}}
	return &Analyzer{
		Name:   "metricnames",
		Doc:    "metric names must be lowercase_snake constants registered from one file per name",
		Run:    mn.run,
		Finish: mn.finish,
	}
}

// metricKinds maps registration method name to argument count (name, or
// name+label for the one-label Vec families).
var metricKinds = map[string]int{
	"Counter": 1, "Gauge": 1, "Histogram": 1,
	"CounterVec": 2, "GaugeVec": 2, "HistogramVec": 2,
}

type metricReg struct {
	kind string
	file string
	pos  token.Pos
}

type metricNames struct {
	regs map[string][]metricReg
}

func (mn *metricNames) run(pass *Pass) {
	for fi, f := range pass.Pkg.Files {
		file := pass.Pkg.Filenames[fi]
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			nargs, ok := metricKinds[sel.Sel.Name]
			if !ok || len(call.Args) < nargs {
				return true
			}
			if !isRegistryRecv(pass, sel.X) {
				return true
			}
			name, ok := stringConst(pass, call.Args[0])
			if !ok {
				pass.Reportf(call.Args[0].Pos(), "metric name passed to %s is not a compile-time constant string; dynamic names defeat the single-registration-site rule (use a label)", sel.Sel.Name)
				return true
			}
			if !validMetricName(name) {
				pass.Reportf(call.Args[0].Pos(), "metric name %q is not lowercase_snake ([a-z][a-z0-9_]*)", name)
			} else if (sel.Sel.Name == "Counter" || sel.Sel.Name == "CounterVec") && !strings.HasSuffix(name, "_total") {
				pass.Reportf(call.Args[0].Pos(), "counter %q must end in _total; a counter without the suffix reads as a gauge", name)
			}
			if nargs == 2 {
				if label, ok := stringConst(pass, call.Args[1]); ok {
					if !validMetricName(label) {
						pass.Reportf(call.Args[1].Pos(), "metric label key %q is not lowercase_snake ([a-z][a-z0-9_]*)", label)
					}
				} else {
					pass.Reportf(call.Args[1].Pos(), "metric label key passed to %s is not a compile-time constant string", sel.Sel.Name)
				}
			}
			mn.regs[name] = append(mn.regs[name], metricReg{kind: sel.Sel.Name, file: file, pos: call.Args[0].Pos()})
			return true
		})
	}
}

func (mn *metricNames) finish(r *Reporter) {
	if len(mn.regs) == 0 {
		r.Reportf(token.NoPos, "no metric registrations found in the analyzed packages; the metrics layer or this analyzer is miswired")
		return
	}
	names := make([]string, 0, len(mn.regs))
	for name := range mn.regs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		regs := mn.regs[name]
		sort.Slice(regs, func(i, j int) bool { return regs[i].pos < regs[j].pos })
		first := regs[0]
		for _, reg := range regs[1:] {
			if reg.kind != first.kind {
				r.Reportf(reg.pos, "metric %q registered as %s here but as %s elsewhere; one name keeps one instrument kind", name, reg.kind, first.kind)
				continue
			}
			if reg.file != first.file {
				r.Reportf(reg.pos, "metric %q is also registered in %s; a name belongs to a single source file", name, first.file)
			}
		}
	}
}

// isRegistryRecv reports whether x is a Registry or a pointer to one.
func isRegistryRecv(pass *Pass, x ast.Expr) bool {
	t := pass.Pkg.Info.TypeOf(x)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Registry"
}

// stringConst resolves an expression to the string constant the type
// checker folded it to.
func stringConst(pass *Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.Pkg.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// validMetricName reports lowercase_snake: [a-z][a-z0-9_]*.
func validMetricName(name string) bool {
	if name == "" || !(name[0] >= 'a' && name[0] <= 'z') {
		return false
	}
	for i := 1; i < len(name); i++ {
		c := name[i]
		if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' {
			continue
		}
		return false
	}
	return true
}
