package analysis

import (
	"go/ast"
	"go/token"
)

// NewOperatorClose builds the operatorclose analyzer.
//
// Bug class (PR 1): an operator that stores child operators opened some of
// them and its Close released only the currently active one, leaking
// iterators when a guard re-evaluation switched branches or an error struck
// mid-open.
//
// The check: for every struct that stores exec.Operator fields and calls
// Open on one of them, the struct's Close method must release that field on
// its default path — directly (field.Close()), by ranging over the field
// and closing elements, or by passing the field to a helper. One escape is
// recognized: a field handed to a method on the same receiver (e.g.
// s.track(s.active)) is treated as tracked elsewhere. A close that only
// happens under a conditional other than a nil-guard of the field itself is
// flagged as conditional.
func NewOperatorClose() *Analyzer {
	return &Analyzer{
		Name: "operatorclose",
		Doc:  "operator structs must propagate Close to every opened child operator field",
		Run:  runOperatorClose,
	}
}

// isOperatorType reports whether a field type expression names the operator
// interface (possibly package-qualified, possibly a slice/array/pointer of
// it).
func isOperatorType(e ast.Expr) bool {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name == "Operator"
	case *ast.SelectorExpr:
		return isOperatorType(t.Sel)
	case *ast.ArrayType:
		return isOperatorType(t.Elt)
	case *ast.StarExpr:
		return isOperatorType(t.X)
	}
	return false
}

// opStruct is one struct type with operator-typed fields.
type opStruct struct {
	name    string
	pos     token.Pos
	fields  map[string]token.Pos // operator-typed field name -> decl pos
	opened  map[string]token.Pos // field -> first Open call position
	handed  map[string]bool      // field passed to a method on the same receiver
	closeFn *ast.FuncDecl
	closeRx string // receiver name inside Close
}

func runOperatorClose(pass *Pass) {
	structs := map[string]*opStruct{}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				fields := map[string]token.Pos{}
				for _, fld := range st.Fields.List {
					if !isOperatorType(fld.Type) {
						continue
					}
					for _, name := range fld.Names {
						fields[name.Name] = name.Pos()
					}
				}
				if len(fields) > 0 {
					structs[ts.Name.Name] = &opStruct{
						name:   ts.Name.Name,
						pos:    ts.Name.Pos(),
						fields: fields,
						opened: map[string]token.Pos{},
						handed: map[string]bool{},
					}
				}
			}
		}
	}
	if len(structs) == 0 {
		return
	}

	// Scan every method of each tracked struct for opens, hand-offs and the
	// Close declaration.
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			tname := recvTypeName(fd.Recv.List[0].Type)
			os, ok := structs[tname]
			if !ok {
				continue
			}
			rx := ""
			if len(fd.Recv.List[0].Names) > 0 {
				rx = fd.Recv.List[0].Names[0].Name
			}
			if fd.Name.Name == "Close" {
				os.closeFn, os.closeRx = fd, rx
			}
			if fd.Body == nil || rx == "" {
				continue
			}
			scanOpMethod(os, rx, fd.Body)
		}
	}

	for _, os := range sortedStructs(structs) {
		checkOpStruct(pass, os)
	}
}

func sortedStructs(m map[string]*opStruct) []*opStruct {
	var out []*opStruct
	for _, v := range m {
		out = append(out, v)
	}
	// Report in declaration order for deterministic output.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].pos < out[j-1].pos; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// mentionsField reports whether expr contains the selector rx.field (or an
// index/slice of it).
func mentionsField(e ast.Expr, rx, field string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == field {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == rx {
				found = true
				return false
			}
		}
		return !found
	})
	return found
}

// scanOpMethod records Open calls and hand-offs to receiver methods for one
// method body.
func scanOpMethod(os *opStruct, rx string, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name == "Open" {
			for fld := range os.fields {
				if mentionsField(sel.X, rx, fld) {
					if _, seen := os.opened[fld]; !seen {
						os.opened[fld] = call.Pos()
					}
				}
			}
		}
		// s.helper(... s.F ...) hands F to another method of the same
		// receiver, which is trusted to track it for Close.
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == rx {
			for _, arg := range call.Args {
				for fld := range os.fields {
					if mentionsField(arg, rx, fld) {
						os.handed[fld] = true
					}
				}
			}
		}
		return true
	})
}

// closeKind classifies how a field shows up in Close.
type closeKind int

const (
	closeNone closeKind = iota
	closeConditional
	closeUnconditional
)

func checkOpStruct(pass *Pass, os *opStruct) {
	if len(os.opened) == 0 {
		return
	}
	if os.closeFn == nil {
		pass.Reportf(os.pos, "%s opens child operator fields but declares no Close method", os.name)
		return
	}
	for _, fld := range sortedFields(os.opened) {
		kind := closeOccurrence(os.closeFn.Body, os.closeRx, fld)
		if os.handed[fld] || kind == closeUnconditional {
			continue
		}
		pos := os.opened[fld]
		if kind == closeConditional {
			pass.Reportf(pos, "(%s).Close closes child operator field %s only under a condition that is not a nil-guard; an early-exit path can leak the opened child", os.name, fld)
		} else {
			pass.Reportf(pos, "(%s).Close never closes child operator field %s, which this method opens; the child leaks on every execution", os.name, fld)
		}
	}
}

func sortedFields(m map[string]token.Pos) []string {
	var out []string
	for f := range m {
		out = append(out, f)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && m[out[j]] < m[out[j-1]]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// closeOccurrence finds the strongest way Close releases the field: an
// unconditional close (top level, inside a loop, inside a defer, or inside
// an if that nil-guards the field itself) beats a conditional one.
func closeOccurrence(body *ast.BlockStmt, rx, fld string) closeKind {
	if body == nil || rx == "" {
		return closeNone
	}
	mentions := func(e ast.Expr) bool { return mentionsField(e, rx, fld) }

	best := closeNone
	var stack []ast.Node
	record := func(n ast.Node) {
		if guardedByForeignCondition(stack, n, mentions) {
			if best < closeConditional {
				best = closeConditional
			}
		} else {
			best = closeUnconditional
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Close" && mentions(sel.X) {
				record(n)
				return true
			}
			for _, arg := range n.Args {
				if mentions(arg) {
					record(n) // field handed to a closing helper
					return true
				}
			}
		case *ast.RangeStmt:
			if mentions(n.X) && containsCloseCall(n.Body) {
				record(n)
				return false // don't double-count the inner Close call
			}
		}
		return true
	})
	return best
}

func containsCloseCall(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Close" {
				found = true
				return false
			}
		}
		return !found
	})
	return found
}

// guardedByForeignCondition reports whether node sits inside an if/switch/
// select arm whose condition is unrelated to the field (mentions reports
// field relation). A nil-guard of the field itself (`if s.f != nil`) does
// not count as foreign.
func guardedByForeignCondition(stack []ast.Node, node ast.Node, mentions func(ast.Expr) bool) bool {
	for _, anc := range stack {
		switch s := anc.(type) {
		case *ast.IfStmt:
			if !within(s.Body, node) && (s.Else == nil || !within(s.Else, node)) {
				continue
			}
			if isNilGuard(s.Cond, mentions) {
				continue
			}
			return true
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			if s.Pos() <= node.Pos() && node.End() <= s.End() && s != node {
				return true
			}
		}
	}
	return false
}

func within(outer ast.Node, inner ast.Node) bool {
	if outer == nil {
		return false
	}
	return outer.Pos() <= inner.Pos() && inner.End() <= outer.End()
}

// isNilGuard matches `X != nil` (or `nil != X`) where X relates to the
// field being checked.
func isNilGuard(cond ast.Expr, mentions func(ast.Expr) bool) bool {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || be.Op != token.NEQ {
		return false
	}
	isNil := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "nil"
	}
	switch {
	case isNil(be.X):
		return mentions(be.Y)
	case isNil(be.Y):
		return mentions(be.X)
	}
	return false
}
