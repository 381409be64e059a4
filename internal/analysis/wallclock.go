package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// NewWallClock builds the wallclock analyzer with the repo's default
// allowlist.
//
// Contract: every headline guarantee this reproduction makes — byte-
// identical chaos reports, same-seed SLO and tuner timelines, the planned
// offline consistency checker — rests on deterministic behavior under the
// virtual clock. Deterministic packages (everything under internal/ except
// the explicit allowlist) therefore must not read wall-clock time or use
// the process-global math/rand source: time comes from an injected
// vclock.Clock, randomness from an explicitly seeded rand.New(
// rand.NewSource(seed)).
//
// The analyzer flags, in deterministic packages:
//
//   - direct calls to time.Now, Since, Until, Sleep, After, AfterFunc,
//     Tick, NewTimer and NewTicker;
//   - calls to the package-level math/rand (and math/rand/v2) functions,
//     which draw from the unseeded global source;
//   - calls to module-local helpers that transitively reach wall clock
//     through a non-deterministic package — reported at the deterministic
//     entry point, because that is where the contract is broken.
//
// internal/vclock is sanctioned: it is the one place wall clock is
// wrapped, so calls into it never taint callers. Packages named main (CLI
// entry points, demo mode) are exempt from the determinism contract but
// are not sanctioned — a deterministic package routing time through one of
// their helpers is still flagged. The handful of legitimately wall-clock
// sites inside deterministic packages (ops-surface timestamps, wall-bound
// test timeouts) carry //rcclint:ignore wallclock <reason>.
func NewWallClock() *Analyzer {
	return NewWallClockAllow()
}

// NewWallClockAllow builds the wallclock analyzer with extra allowlisted
// import-path fragments on top of the defaults (used by the fixture tests
// to mark testdata helper packages as exempt).
func NewWallClockAllow(extraAllow ...string) *Analyzer {
	wc := &wallClock{
		cg:        newCallGraph(),
		seeds:     map[string]token.Pos{},
		seedCalls: map[string]string{},
		detNodes:  map[string]bool{},
		allow:     append([]string{"internal/vclock"}, extraAllow...),
	}
	return &Analyzer{
		Name:   "wallclock",
		Doc:    "deterministic packages must take time from an injected vclock.Clock, not the wall clock or the global math/rand source",
		Run:    wc.run,
		Finish: wc.finish,
	}
}

// wallTimeFns are the time-package functions that read or schedule against
// the operating-system clock.
var wallTimeFns = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// globalRandFns are the math/rand (and math/rand/v2) package-level
// functions that draw from the process-global source. Explicit generators
// (rand.New, rand.NewSource, rand.NewPCG, rand.NewZipf) are fine: they are
// seeded by the caller.
var globalRandFns = map[string]bool{
	"Int": true, "Intn": true, "IntN": true, "Int31": true, "Int31n": true,
	"Int32": true, "Int32N": true, "Int63": true, "Int63n": true,
	"Int64": true, "Int64N": true, "Uint": true, "UintN": true,
	"Uint32": true, "Uint32N": true, "Uint64": true, "Uint64N": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true, "N": true,
}

type wallClock struct {
	cg *callGraph
	// seeds maps node ids with a direct wall-clock call to its position;
	// seedCalls remembers what was called there for the propagated message.
	seeds     map[string]token.Pos
	seedCalls map[string]string
	// detNodes marks nodes living in deterministic packages: their direct
	// findings are reported during run, and taint must not flow through
	// them (the finding would travel past its own report).
	detNodes map[string]bool
	allow    []string
	// detFuncs are the deterministic-package functions whose call sites are
	// checked against the taint set during finish.
	detFuncs []*cgNode
}

// exempt reports whether the package is excused from the determinism
// contract: allowlisted paths and main packages.
func (wc *wallClock) exempt(pkg *Package) bool {
	if pkg.Name == "main" {
		return true
	}
	for _, frag := range wc.allow {
		if strings.Contains(pkg.ImportPath, frag) {
			return true
		}
	}
	return false
}

// sanctioned reports whether the package is the trusted clock wrapper:
// calls into it never count as reaching wall clock.
func (wc *wallClock) sanctioned(importPath string) bool {
	return strings.Contains(importPath, "internal/vclock")
}

// deterministic reports whether the package must uphold the virtual-clock
// contract: module-internal and not exempt.
func (wc *wallClock) deterministic(pkg *Package) bool {
	return strings.Contains(pkg.ImportPath, "/internal/") && !wc.exempt(pkg)
}

// wallCallName classifies a call expression as a wall-clock primitive,
// returning a display name like "time.Now" or "math/rand.Intn". Detection
// is by imported package path, so aliased imports count too.
func wallCallName(pass *Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := pass.Pkg.Info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	path := pn.Imported().Path()
	switch path {
	case "time":
		if wallTimeFns[sel.Sel.Name] {
			return "time." + sel.Sel.Name
		}
	case "math/rand", "math/rand/v2":
		if globalRandFns[sel.Sel.Name] {
			return path + "." + sel.Sel.Name
		}
	}
	return ""
}

func (wc *wallClock) run(pass *Pass) {
	det := wc.deterministic(pass.Pkg)
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			node := wc.cg.addFunc(pass, fd, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				name := wallCallName(pass, call)
				if name == "" {
					return true
				}
				if det {
					pass.Reportf(call.Pos(), "%s in deterministic package %s: route time through the injected vclock.Clock (or suppress with an //rcclint:ignore reason)", name, pass.Pkg.ImportPath)
				}
				if _, ok := wc.seeds[funcID(pass.Pkg, fd)]; !ok {
					wc.seeds[funcID(pass.Pkg, fd)] = call.Pos()
					wc.seedCalls[funcID(pass.Pkg, fd)] = name
				}
				return true
			})
			if det {
				wc.detNodes[node.id] = true
				wc.detFuncs = append(wc.detFuncs, node)
			}
		}
	}
}

// finish propagates "reaches wall clock" backward through the call graph
// and reports deterministic call sites whose callee acquired the taint in
// a non-deterministic, non-sanctioned package (helpers in CLI mains or
// other exempt code). Direct calls inside deterministic packages were
// already reported in run; taint stops at deterministic and sanctioned
// nodes so each violation is reported exactly once, at the point where
// determinism is lost.
func (wc *wallClock) finish(r *Reporter) {
	barrier := func(n *cgNode) bool {
		return wc.sanctioned(n.pkg) || wc.detNodes[n.id]
	}
	tainted := wc.cg.propagate(wc.seeds, barrier)

	type finding struct {
		pos    token.Pos
		callee string
		via    string
	}
	var out []finding
	seen := map[token.Pos]bool{}
	for _, fn := range wc.detFuncs {
		for _, call := range fn.calls {
			for _, c := range call.callees {
				for _, callee := range wc.cg.resolve(c) {
					if _, ok := tainted[callee.id]; !ok {
						continue
					}
					if seen[call.pos] {
						continue
					}
					seen[call.pos] = true
					via := wc.seedCalls[callee.id]
					if via == "" {
						via = "wall clock"
					}
					out = append(out, finding{pos: call.pos, callee: shortName(callee.id), via: via})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	for _, f := range out {
		r.Reportf(f.pos, "call to %s transitively reaches %s outside any sanctioned clock package; deterministic code must take time from the injected vclock.Clock", f.callee, f.via)
	}
}
