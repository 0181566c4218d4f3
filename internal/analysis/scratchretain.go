package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Scratchretain flags *Into / *Buf / *Batch functions that retain their
// caller-owned scratch argument beyond the call. The allocation-free hot
// path (PredictWindowBatch, PredictPowerBuf, PreviewScheduleInto, …) works
// because the caller owns the buffer and may reuse or resize it between
// calls; a callee that squirrels the slice away in a field, a
// package-level variable, or a returned closure aliases that scratch
// memory across calls and corrupts later results. Batch entry points
// carry the same contract for their input arenas (the schedule and skip
// slices): the evaluator may read them during the call and must copy
// anything it needs beyond it.
//
// Flagged, for any parameter of slice or pointer type in a function whose
// name ends in "Into", "Buf", or "Batch":
//
//   - assigning the parameter (or a subslice of it) to any field
//     (x.f = buf) — the receiver outlives the call;
//   - assigning it to a package-level variable;
//   - capturing it in a function literal that is returned.
//
// Not flagged: returning the (filled) buffer itself — that is the *Into
// contract — writing into its elements, and passing it on to other
// functions. Aliasing laundered through an intermediate local is beyond
// this pass; keep scratch flow direct.
var Scratchretain = &Analyzer{
	Name: "scratchretain",
	Doc:  "flag *Into/*Buf/*Batch functions that retain their caller-owned scratch arguments",
	Run:  runScratchretain,
}

func runScratchretain(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			if !strings.HasSuffix(name, "Into") && !strings.HasSuffix(name, "Buf") &&
				!strings.HasSuffix(name, "Batch") {
				continue
			}
			scratch := scratchParams(pass, fd)
			if len(scratch) == 0 {
				continue
			}
			checkRetention(pass, fd, scratch)
		}
	}
	return nil
}

// scratchParams collects the objects of slice- or pointer-typed
// parameters: the caller-owned buffers the suffix convention promises not
// to retain.
func scratchParams(pass *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	scratch := map[types.Object]bool{}
	for _, field := range fd.Type.Params.List {
		for _, ident := range field.Names {
			obj := pass.TypesInfo.Defs[ident]
			if obj == nil {
				continue
			}
			switch obj.Type().Underlying().(type) {
			case *types.Slice, *types.Pointer:
				scratch[obj] = true
			}
		}
	}
	return scratch
}

func checkRetention(pass *Pass, fd *ast.FuncDecl, scratch map[types.Object]bool) {
	// isScratch resolves an expression to a scratch parameter: the bare
	// identifier or any chain of subslice expressions over it.
	isScratch := func(e ast.Expr) types.Object {
		for {
			switch x := e.(type) {
			case *ast.Ident:
				if obj := pass.TypesInfo.Uses[x]; obj != nil && scratch[obj] {
					return obj
				}
				return nil
			case *ast.SliceExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			default:
				return nil
			}
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				obj := isScratch(rhs)
				if obj == nil {
					continue
				}
				if len(n.Lhs) != len(n.Rhs) {
					continue
				}
				switch lhs := n.Lhs[i].(type) {
				case *ast.SelectorExpr:
					pass.Reportf(n.Pos(),
						"%s stores caller-owned scratch %q in a field: the buffer would alias across calls",
						fd.Name.Name, obj.Name())
				case *ast.Ident:
					if target := pass.TypesInfo.Uses[lhs]; target != nil && isPackageLevel(target) {
						pass.Reportf(n.Pos(),
							"%s stores caller-owned scratch %q in package-level variable %q",
							fd.Name.Name, obj.Name(), target.Name())
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				lit, ok := res.(*ast.FuncLit)
				if !ok {
					continue
				}
				ast.Inspect(lit.Body, func(inner ast.Node) bool {
					id, ok := inner.(*ast.Ident)
					if !ok {
						return true
					}
					if obj := pass.TypesInfo.Uses[id]; obj != nil && scratch[obj] {
						pass.Reportf(id.Pos(),
							"%s captures caller-owned scratch %q in a returned closure: the buffer would alias across calls",
							fd.Name.Name, obj.Name())
					}
					return true
				})
			}
		}
		return true
	})
}

// isPackageLevel reports whether obj is declared at package scope.
func isPackageLevel(obj types.Object) bool {
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}
