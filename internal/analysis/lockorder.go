package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// NewLockOrder builds the lockorder analyzer.
//
// Across the module it builds a lock-acquisition graph — an edge A→B when
// some function acquires B, directly or through a call chain (interface
// calls resolved by method name), while holding A — and flags every cycle.
// Two goroutines taking the locks of a cycle in opposite orders deadlock;
// -race does not report it, and a test only hangs if it happens to
// interleave them. Each half of an inversion is usually a harmless edit on
// its own (a callback sink that takes its owner's lock, a loop that calls
// out while holding one), which is why it takes the whole-module graph to
// see it. Releasing locks is not checked: a leak on a path the tests take
// hangs them.
func NewLockOrder() *Analyzer {
	lo := &lockOrder{cg: newCallGraph(), acquires: map[string]map[string]token.Pos{}}
	return &Analyzer{
		Name:   "lockorder",
		Doc:    "locks must be acquired in a cycle-free order across the module",
		Run:    lo.run,
		Finish: lo.finish,
	}
}

// lockEdge is one lock-acquisition-order edge: from is held while to is
// acquired; via describes the function (or call) responsible.
type lockEdge struct {
	from, to string
	pos      token.Pos
	via      string
}

// heldCall is a call made while the caller holds locks.
type heldCall struct {
	caller string
	held   []string
	call   cgCall
}

type lockOrder struct {
	cg *callGraph
	// acquires maps each lock to the functions that take it directly: the
	// seeds of the set of functions that may acquire it.
	acquires map[string]map[string]token.Pos
	edges    []lockEdge // nesting inside one function body
	calls    []heldCall
}

func (lo *lockOrder) run(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				lo.scan(pass, fd)
			}
		}
	}
}

// scan adds one function to the call graph while tracking, in source order,
// the locks it holds: a Lock or RLock takes one, an Unlock or RUnlock
// releases it unless deferred. Function literals run at an unknown time
// under unknown locks and are skipped.
func (lo *lockOrder) scan(pass *Pass, fd *ast.FuncDecl) {
	id := funcID(pass.Pkg, fd)
	counts := map[string]int{}
	held := func() []string {
		var out []string
		for k, c := range counts {
			if c > 0 {
				out = append(out, k)
			}
		}
		sort.Strings(out)
		return out
	}
	deferred := map[*ast.CallExpr]bool{}
	heldAt := map[token.Pos][]string{}
	node := lo.cg.addFunc(pass, fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			deferred[n.Call] = true
		case *ast.CallExpr:
			sel, _ := n.Fun.(*ast.SelectorExpr)
			switch {
			case sel != nil && (sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock"):
				key := lockKey(pass, sel.X)
				for _, h := range held() {
					if h != key {
						lo.edges = append(lo.edges, lockEdge{from: h, to: key, pos: n.Pos(), via: id})
					}
				}
				counts[key]++
				if lo.acquires[key] == nil {
					lo.acquires[key] = map[string]token.Pos{}
				}
				if _, ok := lo.acquires[key][id]; !ok {
					lo.acquires[key][id] = n.Pos()
				}
			case sel != nil && (sel.Sel.Name == "Unlock" || sel.Sel.Name == "RUnlock"):
				if !deferred[n] {
					counts[lockKey(pass, sel.X)]--
				}
			default:
				if h := held(); len(h) > 0 {
					heldAt[n.Pos()] = h
				}
			}
		}
		return true
	})
	for _, c := range node.calls {
		if h, ok := heldAt[c.pos]; ok {
			lo.calls = append(lo.calls, heldCall{caller: id, held: h, call: c})
		}
	}
}

// lockKey names the lock a .Lock()/.Unlock() call targets: the owning named
// type plus field when the checker resolved it, else the package-qualified
// expression.
func lockKey(pass *Pass, x ast.Expr) string {
	if sel, ok := x.(*ast.SelectorExpr); ok {
		t := pass.Pkg.Info.TypeOf(sel.X)
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Path() + ".(" + named.Obj().Name() + ")." + sel.Sel.Name
		}
	}
	return pass.Pkg.ImportPath + "." + renderExpr(x)
}

// finish builds the module-wide lock-acquisition graph and reports cycles.
func (lo *lockOrder) finish(r *Reporter) {
	// may[k] holds every function that takes lock k, itself or through a
	// callee.
	may := map[string]map[string]token.Pos{}
	for k, seeds := range lo.acquires {
		may[k] = lo.cg.propagate(seeds, nil)
	}
	// One edge per ordered pair, the earliest in the file set, so the
	// reported position does not depend on map order. A re-lock through a
	// call chain (from == to) is too imprecise to flag.
	edgeSet := map[[2]string]lockEdge{}
	addEdge := func(e lockEdge) {
		k := [2]string{e.from, e.to}
		if old, ok := edgeSet[k]; e.from != e.to && (!ok || e.pos < old.pos) {
			edgeSet[k] = e
		}
	}
	for _, e := range lo.edges {
		addEdge(e)
	}
	for _, hc := range lo.calls {
		for _, c := range hc.call.callees {
			for _, callee := range lo.cg.resolve(c) {
				for k, fns := range may {
					if _, ok := fns[callee.id]; !ok {
						continue
					}
					for _, h := range hc.held {
						addEdge(lockEdge{from: h, to: k, pos: hc.call.pos, via: hc.caller + " -> " + callee.id})
					}
				}
			}
		}
	}

	// Cycle detection: depth-first from every lock in sorted order.
	adj := map[string][]lockEdge{}
	var nodes []string
	for _, e := range edgeSet {
		if len(adj[e.from]) == 0 {
			nodes = append(nodes, e.from)
		}
		adj[e.from] = append(adj[e.from], e)
	}
	sort.Strings(nodes)
	for _, es := range adj {
		sort.Slice(es, func(i, j int) bool { return es[i].to < es[j].to })
	}
	reported := map[string]bool{}
	var path []lockEdge
	onStack := map[string]bool{}
	var dfs func(n string)
	dfs = func(n string) {
		onStack[n] = true
		for _, e := range adj[n] {
			if onStack[e.to] {
				start := 0
				for i, pe := range path {
					if pe.from == e.to {
						start = i
						break
					}
				}
				reportCycle(r, append(append([]lockEdge(nil), path[start:]...), e), reported)
				continue
			}
			path = append(path, e)
			dfs(e.to)
			path = path[:len(path)-1]
		}
		onStack[n] = false
	}
	for _, n := range nodes {
		dfs(n)
	}
}

// reportCycle reports a cycle once, whichever lock the search entered it at.
func reportCycle(r *Reporter, cyc []lockEdge, reported map[string]bool) {
	names := make([]string, 0, len(cyc))
	for _, e := range cyc {
		names = append(names, e.from)
	}
	sort.Strings(names)
	sig := strings.Join(names, "|")
	if reported[sig] {
		return
	}
	reported[sig] = true
	var desc strings.Builder
	for i, e := range cyc {
		if i > 0 {
			desc.WriteString(", then ")
		}
		fmt.Fprintf(&desc, "%s is held while acquiring %s (%s)", shortName(e.from), shortName(e.to), e.via)
	}
	r.Reportf(cyc[0].pos, "lock-order cycle (deadlock candidate): %s", desc.String())
}

// shortName trims the module path from a lock key or function id.
func shortName(k string) string {
	if i := strings.LastIndexByte(k, '/'); i >= 0 {
		return k[i+1:]
	}
	return k
}
