package analysis

import (
	"go/ast"
	"go/types"
)

// PoolContract enforces the parallel region discipline: a callback
// passed to parallel.Pool.For / Pool.Each / Pool.Claim or the
// package-level parallel.For may only write through per-worker or
// per-item slots. Worker w's chunks always run on pinned goroutine w,
// so in a For or Each callback writes indexed by the worker id (or by
// a region-local induction variable over the region's [start,end)
// chunk) are race-free AND fold in a fixed order; any other write to
// captured state is either a data race or — when lock-guarded — a
// schedule-dependent accumulation order, which breaks bit-identity
// just as surely.
//
// Concretely, inside such a callback the analyzer flags assignments
// and ++/-- whose left-hand side captures an outer variable without
// mentioning any variable declared inside the callback (parameters
// included). results[w] = ..., out[i] += ... (i region-local) and
// locals are fine; shared = ..., results[j] = ... (j captured) and
// s = append(s, ...) are not. Calls (including sync/atomic counters)
// are not writes and are left to the race detector. Intentional
// exceptions carry //detlint:allow poolcontract(reason).
//
// A Claim callback fn(worker, i) gets no fixed share of the items, so
// there the worker id does not pin a write: acc[worker] += x folds in
// schedule order. Only the item index i, and callback locals whose
// values are computed from it, pin a write to captured state. Writes
// through a callback-local base stay the callback's own business, as
// in For regions, so per-worker scratch reached through a local
// (buf := scratch[worker]) is not flagged — nor is a fold through such
// an alias.
var PoolContract = &Analyzer{
	Name: "poolcontract",
	Doc:  "flags parallel.Pool callbacks that mutate shared state without per-worker pinning",
	Run:  runPoolContract,
}

func runPoolContract(pass *Pass) error {
	for _, f := range pass.sourceFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			lit, claim := poolCallback(pass, call)
			if lit == nil {
				return true
			}
			checkCallback(pass, lit, claim)
			return true
		})
	}
	return nil
}

// poolCallback returns the func literal passed as the region callback
// of a parallel.For / Pool.For / Pool.Each / Pool.Claim call, or nil;
// claim reports a Pool.Claim callback.
func poolCallback(pass *Pass, call *ast.CallExpr) (lit *ast.FuncLit, claim bool) {
	fn := funcFor(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || pkgTail(fn.Pkg().Path()) != "parallel" {
		return nil, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil, false
	}
	var argIdx int
	if recv := sig.Recv(); recv != nil {
		// Methods For(n, fn) / Claim(n, fn) / Each(fn) on parallel.Pool.
		base := recv.Type()
		if p, ok := base.(*types.Pointer); ok {
			base = p.Elem()
		}
		named, ok := base.(*types.Named)
		if !ok || named.Obj().Name() != "Pool" {
			return nil, false
		}
		switch fn.Name() {
		case "For", "Claim":
			argIdx = 1
		case "Each":
			argIdx = 0
		default:
			return nil, false
		}
	} else if fn.Name() == "For" {
		argIdx = 1 // package-level parallel.For(n, fn)
	} else {
		return nil, false
	}
	if argIdx >= len(call.Args) {
		return nil, false
	}
	lit, _ = call.Args[argIdx].(*ast.FuncLit)
	return lit, fn.Name() == "Claim"
}

func checkCallback(pass *Pass, lit *ast.FuncLit, claim bool) {
	declaredInside := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= lit.Pos() && obj.Pos() < lit.End()
	}
	pins := declaredInside
	if claim {
		item := itemDerived(pass, lit, declaredInside)
		pins = func(obj types.Object) bool { return item[obj] }
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.FuncLit); ok && inner != lit {
			// A nested literal is a different (possibly deferred)
			// execution context; judge it against its own captures
			// only if it is itself a region callback.
			return false
		}
		var lhss []ast.Expr
		switch s := n.(type) {
		case *ast.AssignStmt:
			lhss = s.Lhs
		case *ast.IncDecStmt:
			lhss = []ast.Expr{s.X}
		default:
			return true
		}
		for _, lhs := range lhss {
			checkRegionWrite(pass, lhs, declaredInside, pins, claim)
		}
		return true
	})
}

// checkRegionWrite flags a write whose target captures state from
// outside the callback without being pinned by a pinning variable:
// any callback-local one in a For or Each callback, one derived from
// the item index in a Claim callback. A composite write through a
// local base is the callback's own state.
func checkRegionWrite(pass *Pass, lhs ast.Expr, declaredInside, pins func(types.Object) bool, claim bool) {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		obj := pass.TypesInfo.ObjectOf(id)
		if obj == nil || declaredInside(obj) {
			return // local, or a fresh := definition
		}
		pass.Reportf(lhs.Pos(), "parallel region callback assigns to captured variable %s; give each worker its own slot (indexed by the worker id) and fold the slots in order after the region, or annotate //detlint:allow poolcontract(reason)", id.Name)
		return
	}
	// Composite lvalue: a[i], x.f, *p, a[w].f, ... Allowed iff some
	// identifier inside it pins the write (the worker id, a
	// region-local induction variable, or a local base).
	base := lvalueBase(lhs)
	if base == nil {
		return
	}
	if obj := pass.TypesInfo.ObjectOf(base); obj == nil || declaredInside(obj) {
		return
	}
	pinned := false
	ast.Inspect(lhs, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pins(pass.TypesInfo.ObjectOf(id)) {
			pinned = true
		}
		return !pinned
	})
	if pinned {
		return
	}
	if claim {
		pass.Reportf(lhs.Pos(), "Claim callback writes %s through captured state with no index derived from the item; Claim fixes no worker's share of the items, so write a per-item slot (out[i]) and combine the slots by index after the region, or annotate //detlint:allow poolcontract(reason)",
			exprString(pass.Fset, lhs))
		return
	}
	pass.Reportf(lhs.Pos(), "parallel region callback writes %s through captured state with no worker-local index; pin the write to the worker id (e.g. slots[worker]) or annotate //detlint:allow poolcontract(reason)",
		exprString(pass.Fset, lhs))
}

// itemDerived returns the item index of a Claim callback fn(worker, i)
// and the callback locals whose values are computed from it: a local
// joins the set when a value assigned to it (by :=, =, op=, var or
// range) mentions a member, grown to a fixed point.
func itemDerived(pass *Pass, lit *ast.FuncLit, declaredInside func(types.Object) bool) map[types.Object]bool {
	item := map[types.Object]bool{}
	var params []types.Object
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			params = append(params, pass.TypesInfo.ObjectOf(name))
		}
	}
	if len(params) != 2 {
		return item
	}
	item[params[1]] = true

	type flow struct {
		to   []*ast.Ident
		from []ast.Expr
	}
	var flows []flow
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			// a, b := x, y pairs up; a, b := f() flows f() into both.
			pair := len(s.Lhs) == len(s.Rhs)
			for k, lhs := range s.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				from := s.Rhs
				if pair {
					from = s.Rhs[k : k+1]
				}
				flows = append(flows, flow{[]*ast.Ident{id}, from})
			}
		case *ast.ValueSpec:
			flows = append(flows, flow{s.Names, s.Values})
		case *ast.RangeStmt:
			var to []*ast.Ident
			for _, e := range []ast.Expr{s.Key, s.Value} {
				if id, ok := e.(*ast.Ident); ok {
					to = append(to, id)
				}
			}
			flows = append(flows, flow{to, []ast.Expr{s.X}})
		}
		return true
	})
	mentionsItem := func(es []ast.Expr) bool {
		found := false
		for _, e := range es {
			ast.Inspect(e, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && item[pass.TypesInfo.ObjectOf(id)] {
					found = true
				}
				return !found
			})
		}
		return found
	}
	for changed := true; changed; {
		changed = false
		for _, f := range flows {
			if !mentionsItem(f.from) {
				continue
			}
			for _, id := range f.to {
				if obj := pass.TypesInfo.ObjectOf(id); declaredInside(obj) && !item[obj] {
					item[obj], changed = true, true
				}
			}
		}
	}
	return item
}

// lvalueBase returns the root identifier of a composite lvalue.
func lvalueBase(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
