package analysis

import (
	"go/ast"
	"go/types"
)

// Spanend enforces the obs span lifecycle: every span acquired from
// Tracer.Start or Span.Child, and every perfstat scope acquired from
// Collector.Begin, must reach End() — via defer, or via an explicit
// call in the same block as the acquisition (so straight-line control
// flow always passes it). A span that is discarded, or whose only
// End() sits inside a nested branch, leaks open and poisons the
// phase-timing tree; an unended perfstat scope silently drops its host
// sample.
//
// Ownership hand-offs are recognized: a span passed to another function,
// returned, stored in a struct/field, or captured by a non-deferred
// closure is assumed to be ended by its new owner — which is how a span
// handed to Collector.Begin is covered: the scope Begin returns owns the
// span's End, and is checked in its place.
var Spanend = &Analyzer{
	Name: "spanend",
	Doc:  "ensure every obs span and perfstat scope acquisition reaches End() on all paths",
	Run:  runSpanend,
}

const (
	obsPkgPath      = "prefix/internal/obs"
	perfstatPkgPath = "prefix/internal/obs/perfstat"
)

// isObsSpan reports whether t is *obs.Span or *perfstat.Scope.
func isObsSpan(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch {
	case obj.Name() == "Span" && obj.Pkg().Path() == obsPkgPath:
		return true
	case obj.Name() == "Scope" && obj.Pkg().Path() == perfstatPkgPath:
		return true
	}
	return false
}

// isSpanProducer reports whether call is Tracer.Start, Span.Child, or
// Collector.Begin (anything span-shaped from the obs layer).
func isSpanProducer(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if name := sel.Sel.Name; name != "Start" && name != "Child" && name != "Begin" {
		return false
	}
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	return isObsSpan(tv.Type)
}

func runSpanend(pass *Pass) error {
	for _, f := range pass.Files {
		InspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isSpanProducer(pass.TypesInfo, call) {
				return true
			}
			checkSpanAcquisition(pass, call, stack)
			return true
		})
	}
	return nil
}

// checkSpanAcquisition classifies how the producer call's result is
// bound and, for a plain local variable, verifies its End discipline.
func checkSpanAcquisition(pass *Pass, call *ast.CallExpr, stack []ast.Node) {
	if len(stack) == 0 {
		return
	}
	parent := stack[len(stack)-1]
	switch p := parent.(type) {
	case *ast.ExprStmt:
		pass.Reportf(call.Pos(), "span is discarded; its End() can never be called")
		return
	case *ast.AssignStmt:
		if len(p.Lhs) != 1 || len(p.Rhs) != 1 || p.Rhs[0] != ast.Expr(call) {
			return
		}
		id, ok := p.Lhs[0].(*ast.Ident)
		if !ok {
			// Field or index destination: ownership moves to the
			// container; its owner is responsible for End.
			return
		}
		if id.Name == "_" {
			pass.Reportf(call.Pos(), "span is assigned to _; its End() can never be called")
			return
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			return
		}
		checkSpanVar(pass, obj, p, stack)
	case *ast.ValueSpec:
		if len(p.Names) != 1 || len(p.Values) != 1 || p.Values[0] != ast.Expr(call) {
			return
		}
		obj := pass.TypesInfo.Defs[p.Names[0]]
		if obj == nil {
			return
		}
		checkSpanVar(pass, obj, p, stack)
	}
	// Every other parent (call argument, return, composite literal,
	// selector chain) transfers ownership; the new owner must End it.
}

// spanUse is the End-discipline evidence collected for one span var.
type spanUse struct {
	deferred     bool // v.End() under a defer (directly or in a deferred closure)
	escapes      bool // aliased, passed, returned, stored, or captured
	sameBlockEnd bool // explicit v.End() in the acquisition's own block, after it
	nestedEnd    bool // explicit v.End() only deeper in the block tree
}

// checkSpanVar scans the enclosing function for the variable's End and
// escape evidence and reports the two failure shapes: no End at all, or
// End only on some paths.
func checkSpanVar(pass *Pass, obj types.Object, bind ast.Node, stack []ast.Node) {
	// Innermost enclosing function body and the block holding the
	// acquisition statement.
	var fnBody *ast.BlockStmt
	var bindBlock *ast.BlockStmt
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncDecl:
			if fnBody == nil {
				fnBody = f.Body
			}
		case *ast.FuncLit:
			if fnBody == nil {
				fnBody = f.Body
			}
		case *ast.BlockStmt:
			if bindBlock == nil {
				bindBlock = f
			}
		}
		if fnBody != nil {
			break
		}
	}
	if fnBody == nil || bindBlock == nil {
		return
	}

	var use spanUse
	InspectWithStack(fnBody, func(n ast.Node, inner []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || pass.TypesInfo.Uses[id] != obj {
			return true
		}
		if id.Pos() <= bind.End() && id.Pos() >= bind.Pos() {
			return true // the binding itself
		}
		classifySpanUse(pass, id, inner, bindBlock, &use)
		return true
	})

	switch {
	case use.deferred, use.escapes, use.sameBlockEnd:
		return
	case use.nestedEnd:
		pass.Reportf(bind.Pos(), "%s.End() is only called on some paths; defer it or call it in this block", obj.Name())
	default:
		pass.Reportf(bind.Pos(), "missing %s.End(); defer it right after the span is acquired", obj.Name())
	}
}

// classifySpanUse folds one identifier occurrence into the evidence.
// inner is the ancestor stack of id within the enclosing function body.
func classifySpanUse(pass *Pass, id *ast.Ident, inner []ast.Node, bindBlock *ast.BlockStmt, use *spanUse) {
	if len(inner) == 0 {
		return
	}
	parent := inner[len(inner)-1]

	// v.End() / v.Set() / v.Child() — method selector on the span.
	if sel, ok := parent.(*ast.SelectorExpr); ok && sel.X == ast.Expr(id) {
		if sel.Sel.Name != "End" {
			return // neutral method use (Set, Child, ObserveDurations, ...)
		}
		// Position the End call in control flow.
		inDefer := false
		var endBlock *ast.BlockStmt
		for i := len(inner) - 1; i >= 0; i-- {
			switch nd := inner[i].(type) {
			case *ast.DeferStmt:
				inDefer = true
			case *ast.BlockStmt:
				if endBlock == nil {
					endBlock = nd
				}
			case *ast.FuncLit:
				// End inside a nested closure: deferred closures count as
				// defers; others are ownership capture.
				if deferredLit(inner[:i+1]) {
					use.deferred = true
				} else {
					use.escapes = true
				}
				return
			}
		}
		switch {
		case inDefer:
			use.deferred = true
		case endBlock == bindBlock:
			use.sameBlockEnd = true
		default:
			use.nestedEnd = true
		}
		return
	}

	switch p := parent.(type) {
	case *ast.CallExpr:
		for _, arg := range p.Args {
			if arg == ast.Expr(id) {
				use.escapes = true // handed to another function
				return
			}
		}
	case *ast.AssignStmt:
		for _, rhs := range p.Rhs {
			if rhs == ast.Expr(id) {
				// Aliased into another variable/field — but a blank
				// assignment (`_ = span`) transfers nothing.
				for _, lhs := range p.Lhs {
					if lid, ok := lhs.(*ast.Ident); ok && lid.Name == "_" {
						return
					}
				}
				use.escapes = true
				return
			}
		}
	case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.UnaryExpr, *ast.SendStmt, *ast.IndexExpr:
		use.escapes = true
	}
}

// deferredLit reports whether the innermost FuncLit at the top of the
// stack is the immediate function of a DeferStmt (defer func(){...}()).
func deferredLit(stack []ast.Node) bool {
	// stack ends at the FuncLit; walk outward past its CallExpr.
	for i := len(stack) - 2; i >= 0 && i >= len(stack)-4; i-- {
		if _, ok := stack[i].(*ast.DeferStmt); ok {
			return true
		}
	}
	return false
}
