package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file holds the call-graph machinery shared by the cross-package
// analyzers: function identity (funcID), callee resolution with the
// bare-name fallback for interface calls (calleeCandidates), and a generic
// module-wide graph (callGraph) with a backward-reachability fixpoint
// (propagate). lockorder propagates "may acquire lock L" from the functions
// that take L to their callers; wallclock carries "reaches wall clock" taint
// from helpers to their deterministic entry points.

// funcID names a function or method uniquely across the module:
// importpath.F for functions, importpath.(T).M for methods.
func funcID(pkg *Package, fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		if tn := recvTypeName(fd.Recv.List[0].Type); tn != "" {
			return pkg.ImportPath + ".(" + tn + ")." + fd.Name.Name
		}
	}
	return pkg.ImportPath + "." + fd.Name.Name
}

// recvTypeName extracts the bare receiver type name from a receiver type
// expression (*T, T, or a generic T[...]).
func recvTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(t.X)
	}
	return ""
}

// calleeCandidates resolves x.M() to summary keys. The receiver's named
// type gives an exact key; calls on an interface (which has no method bodies
// of its own) or on an unresolved receiver are matched by bare method name
// against every implementation in the module, signalled by a leading "?".
func calleeCandidates(pass *Pass, sel *ast.SelectorExpr) []string {
	name := sel.Sel.Name
	// Package-qualified call pkg.F().
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := pass.Pkg.Info.Uses[id].(*types.PkgName); ok {
			return []string{pn.Imported().Path() + "." + name}
		}
	}
	t := pass.Pkg.Info.TypeOf(sel.X)
	for p, ok := t.(*types.Pointer); ok; p, ok = t.(*types.Pointer) {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil && !types.IsInterface(named) {
		return []string{named.Obj().Pkg().Path() + ".(" + named.Obj().Name() + ")." + name}
	}
	return []string{"?" + name}
}

// renderExpr renders simple expressions (idents, selectors, index exprs)
// for stable diagnostic keys.
func renderExpr(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return renderExpr(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return renderExpr(e.X) + "[...]"
	case *ast.ParenExpr:
		return renderExpr(e.X)
	case *ast.StarExpr:
		return renderExpr(e.X)
	case *ast.CallExpr:
		return renderExpr(e.Fun) + "()"
	}
	return "?"
}

// cgCall is one outgoing call site recorded in a call-graph node.
type cgCall struct {
	callees []string // candidate node ids; leading "?" = bare-name match
	pos     token.Pos
}

// cgNode is one function in the module-wide call graph. Function literals
// fold into their enclosing declaration: for reachability properties a
// closure's body is part of the function that creates it.
type cgNode struct {
	id    string
	pkg   string // import path
	pos   token.Pos
	calls []cgCall
}

// callGraph accumulates function nodes across packages during an
// analyzer's Run phase and resolves call edges in Finish, once every
// package (and therefore every bare-name candidate) has been seen.
type callGraph struct {
	nodes  map[string]*cgNode
	byName map[string][]string // bare func/method name -> node ids
}

func newCallGraph() *callGraph {
	return &callGraph{nodes: map[string]*cgNode{}, byName: map[string][]string{}}
}

// addFunc records one function declaration as a graph node, collecting
// every call in its body (including inside nested function literals).
// visit, if non-nil, is invoked for each body node so the analyzer can
// piggyback its own per-function scan on the same walk; returning false
// prunes the subtree for both.
func (cg *callGraph) addFunc(pass *Pass, fd *ast.FuncDecl, visit func(ast.Node) bool) *cgNode {
	id := funcID(pass.Pkg, fd)
	node := &cgNode{id: id, pkg: pass.Pkg.ImportPath, pos: fd.Pos()}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if visit != nil && !visit(n) {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			node.calls = append(node.calls, cgCall{
				callees: []string{pass.Pkg.ImportPath + "." + fun.Name},
				pos:     call.Pos(),
			})
		case *ast.SelectorExpr:
			node.calls = append(node.calls, cgCall{
				callees: calleeCandidates(pass, fun),
				pos:     call.Pos(),
			})
		}
		return true
	})
	cg.nodes[id] = node
	cg.byName[fd.Name.Name] = append(cg.byName[fd.Name.Name], id)
	return node
}

// resolve maps one callee candidate to its graph nodes: exact ids resolve
// directly, "?name" candidates fan out to every function with that bare
// name anywhere in the module.
func (cg *callGraph) resolve(callee string) []*cgNode {
	if len(callee) > 0 && callee[0] == '?' {
		var out []*cgNode
		for _, id := range cg.byName[callee[1:]] {
			out = append(out, cg.nodes[id])
		}
		return out
	}
	if n, ok := cg.nodes[callee]; ok {
		return []*cgNode{n}
	}
	return nil
}

// propagate computes the backward-reachability fixpoint of a property:
// starting from the seeded node ids, a node acquires the property when any
// of its calls can reach a node that has it — unless barrier(node) is true,
// which stops the property from flowing through that node (used to model
// sanctioned wrappers such as internal/vclock). The returned map records,
// per tainted node id, the call position through which the property first
// arrived (the seed position for seeded nodes).
func (cg *callGraph) propagate(seeds map[string]token.Pos, barrier func(*cgNode) bool) map[string]token.Pos {
	tainted := map[string]token.Pos{}
	for id, pos := range seeds {
		if n, ok := cg.nodes[id]; ok && barrier != nil && barrier(n) {
			continue
		}
		tainted[id] = pos
	}
	for changed, rounds := true, 0; changed && rounds < 30; rounds++ {
		changed = false
		for _, n := range cg.nodes {
			if _, ok := tainted[n.id]; ok {
				continue
			}
			if barrier != nil && barrier(n) {
				continue
			}
			for _, call := range n.calls {
				for _, c := range call.callees {
					for _, callee := range cg.resolve(c) {
						if _, ok := tainted[callee.id]; ok {
							tainted[n.id] = call.pos
							changed = true
						}
					}
				}
			}
		}
	}
	return tainted
}
