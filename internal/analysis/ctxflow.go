package analysis

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces the engine's context-threading invariant: cancellation
// must flow from the caller to every blocking operation. Two rules:
//
//  1. A function that receives a context.Context (directly or from an
//     enclosing function literal's scope) must not mint a root context
//     with context.Background() or context.TODO() — doing so severs the
//     cancellation chain for everything downstream.
//  2. Library packages (anything that is not package main) must not call
//     context.Background()/TODO() at all: a library cannot know its
//     caller's lifecycle, so it has to be handed one. A deliberate
//     exception carries a //dbs3lint:ignore ctxflow directive documenting
//     it.
//
// Historical bug: internal/cluster's coordinator poll loop ran
// Poll(context.Background()) from its ticker goroutine, so closing the
// coordinator could not cancel in-flight /stats requests.
//
// _test.go files are exempt — tests are roots and mint contexts freely.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "context.Background()/TODO() must not appear where a caller's context is (or should be) available\n\n" +
		"A function with a context.Context parameter that calls context.Background() severs the\n" +
		"cancellation chain; a library function without one should be handed a context instead of\n" +
		"minting a root. Motivated by the cluster coordinator poll loop, whose background contexts\n" +
		"kept /stats polls alive after Close.",
	Run: runCtxFlow,
}

func runCtxFlow(pass *Pass) error {
	library := pass.Pkg.Name() != "main"
	for _, f := range pass.Files {
		if pass.TestFiles[f] {
			continue
		}
		// ctxDepth counts enclosing functions that bind a
		// context.Context parameter; any depth > 0 means a ctx is in
		// scope at the current node.
		var walk func(n ast.Node, ctxDepth int)
		walk = func(n ast.Node, ctxDepth int) {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body == nil {
					return
				}
				if funcTakesCtx(pass.TypesInfo, n.Type) {
					ctxDepth++
				}
				walk(n.Body, ctxDepth)
				return
			case *ast.FuncLit:
				if funcTakesCtx(pass.TypesInfo, n.Type) {
					ctxDepth++
				}
				walk(n.Body, ctxDepth)
				return
			case *ast.CallExpr:
				fn := resolveCallee(pass.TypesInfo, n)
				if isPkgFunc(fn, "context", "Background") || isPkgFunc(fn, "context", "TODO") {
					switch {
					case ctxDepth > 0:
						pass.Reportf(n.Pos(),
							"context.%s() inside a function that receives a context.Context: thread the caller's ctx instead of severing cancellation", fn.Name())
					case library:
						pass.Reportf(n.Pos(),
							"context.%s() in library code: accept a context.Context from the caller (add //dbs3lint:ignore ctxflow <reason> for a deliberate API shim)", fn.Name())
					}
				}
			}
			if n != nil {
				for _, c := range childNodes(n) {
					walk(c, ctxDepth)
				}
			}
		}
		walk(f, 0)
	}
	return nil
}

// funcTakesCtx reports whether the function type binds a parameter of type
// context.Context.
func funcTakesCtx(info *types.Info, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if tv, ok := info.Types[field.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

// childNodes returns n's immediate children, letting walkers manage their
// own recursion (ast.Inspect cannot carry per-subtree state down).
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	ast.Inspect(n, func(c ast.Node) bool {
		if c == nil {
			return false
		}
		if c == n {
			return true
		}
		out = append(out, c)
		return false
	})
	return out
}
