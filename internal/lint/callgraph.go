package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the whole-program call graph the interprocedural
// checks (transitive-determinism, isolation-boundary, lock-discipline)
// query. It works from the packages the Loader has already parsed and
// type-checked — no extra passes over the source — and stays strictly
// stdlib: method calls resolve through types.Selections, generic
// functions collapse to their origin object, and anything the type
// checker could not resolve (fixtures import stubs on purpose) is
// skipped rather than guessed.
//
// Precision choices, all deliberately conservative (over-approximate
// the edges, never under-approximate):
//
//   - Function literals are collapsed into their enclosing declaration:
//     a call made inside a closure is an edge out of the function that
//     owns the closure. This loses "the closure may never run" but
//     keeps every chain a closure can trigger.
//   - A reference to a function in non-call position (obs.NewWall(
//     time.Now), handler tables, engine jobs) adds a "ref" edge: the
//     callee may run whenever the enclosing function has run.
//   - Calls through an interface method add one edge per concrete
//     module type implementing the interface (plus nothing for stdlib
//     implementors, which have no bodies to analyze anyway).
//   - Package-level var initializers hang off a synthetic per-package
//     "init" node, so `var w = obs.NewWall(time.Now)` is reachable the
//     moment the package is.
//
// Functions outside the module (time.Now, rand.Intn, net/http) appear
// as leaf nodes: they have no analyzed body, but checks match on them
// as sinks.

// Node is one function in the call graph: a declared function or
// method (Fn != nil), a synthetic package initializer (Fn == nil,
// Name "<pkg>.init"), or an out-of-module leaf.
type Node struct {
	Fn   *types.Func   // nil for synthetic package-init nodes
	Pkg  *Package      // owning module package; nil for out-of-module leaves
	Decl *ast.FuncDecl // declaration body, when the node is module code
	Name string        // display name, e.g. "fleet.Manager.Advance"
	Pos  token.Position

	Out []*CallEdge // call sites in this node, in source order
	In  []*CallEdge // reverse edges, deterministic order
}

// Exported reports whether the node is an entry point a sibling
// package can reach directly: an exported function/method, or main.
func (n *Node) Exported() bool {
	if n.Fn == nil {
		return false
	}
	return n.Fn.Exported() || n.Fn.Name() == "main"
}

// CallEdge is one resolved call (or function-value reference) from
// From's body to To.
type CallEdge struct {
	From, To *Node
	Pos      token.Position // the callee expression's position
	Ref      bool           // non-call reference (function value, handler table)
	Dynamic  bool           // devirtualized interface call
}

// Graph is the whole-program call graph over a set of loaded packages.
type Graph struct {
	Nodes []*Node // every node, sorted (package path, name, position)

	byFn   map[*types.Func]*Node
	byInit map[string]*Node // synthetic init nodes by package path
}

// buildGraph constructs the call graph for pkgs. Test files are
// excluded — they are not type-checked and not part of the shipped
// program.
func buildGraph(fset *token.FileSet, pkgs []*Package) *Graph {
	g := &Graph{
		byFn:   make(map[*types.Func]*Node),
		byInit: make(map[string]*Node),
	}
	b := &graphBuilder{fset: fset, g: g}
	b.collectNamedTypes(pkgs)
	for _, pkg := range pkgs {
		if pkg.TypesInfo == nil {
			continue
		}
		for _, f := range pkg.Files {
			if f.Test {
				continue
			}
			for _, decl := range f.AST.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					from := b.declNode(pkg, d)
					if from != nil && d.Body != nil {
						b.addEdges(pkg, from, d.Body)
					}
				case *ast.GenDecl:
					if d.Tok != token.VAR {
						continue
					}
					for _, spec := range d.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						for _, v := range vs.Values {
							b.addEdges(pkg, b.initNode(pkg, v), v)
						}
					}
				}
			}
		}
	}
	g.finalize()
	return g
}

type graphBuilder struct {
	fset  *token.FileSet
	g     *Graph
	named []*types.Named // every named (non-interface) type in the program, sorted
}

// collectNamedTypes gathers the concrete named types of every loaded
// package, the candidate set for interface-call devirtualization.
func (b *graphBuilder) collectNamedTypes(pkgs []*Package) {
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			b.named = append(b.named, named)
		}
	}
	sort.Slice(b.named, func(i, j int) bool {
		a, c := b.named[i].Obj(), b.named[j].Obj()
		ap, cp := "", ""
		if a.Pkg() != nil {
			ap = a.Pkg().Path()
		}
		if c.Pkg() != nil {
			cp = c.Pkg().Path()
		}
		if ap != cp {
			return ap < cp
		}
		return a.Name() < c.Name()
	})
}

// declNode returns (creating if needed) the node for a declared
// function or method, attaching the package and declaration.
func (b *graphBuilder) declNode(pkg *Package, d *ast.FuncDecl) *Node {
	obj := pkg.TypesInfo.Defs[d.Name]
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	n := b.funcNode(fn)
	n.Pkg = pkg
	n.Decl = d
	n.Pos = b.fset.Position(d.Pos())
	return n
}

// initNode returns the synthetic initializer node for pkg, positioned
// at the first initializer expression seen.
func (b *graphBuilder) initNode(pkg *Package, at ast.Node) *Node {
	if n, ok := b.g.byInit[pkg.Path]; ok {
		return n
	}
	n := &Node{
		Pkg:  pkg,
		Name: displayPkg(pkg.Path) + ".init",
		Pos:  b.fset.Position(at.Pos()),
	}
	b.g.byInit[pkg.Path] = n
	b.g.Nodes = append(b.g.Nodes, n)
	return n
}

// funcNode returns (creating if needed) the node for fn, normalized to
// its generic origin. Out-of-module functions become leaf nodes.
func (b *graphBuilder) funcNode(fn *types.Func) *Node {
	fn = fn.Origin()
	if n, ok := b.g.byFn[fn]; ok {
		return n
	}
	n := &Node{
		Fn:   fn,
		Name: funcDisplayName(fn),
		Pos:  b.fset.Position(fn.Pos()),
	}
	b.g.byFn[fn] = n
	b.g.Nodes = append(b.g.Nodes, n)
	return n
}

// addEdges walks body and records every call and function-value
// reference as an edge out of from. Function literals inside body are
// walked as part of it (closure collapsing).
func (b *graphBuilder) addEdges(pkg *Package, from *Node, body ast.Node) {
	if from == nil {
		return
	}
	info := pkg.TypesInfo
	// Callee expressions already consumed as the Fun of a call, so the
	// reference pass below does not double-count them.
	inCall := make(map[ast.Expr]bool)

	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			fun := ast.Unparen(e.Fun)
			markConsumed(fun, inCall)
			if fn := calleeOf(info, fun); fn != nil {
				b.edge(from, fn, fun.Pos(), false, false)
			}
			if sel, ok := fun.(*ast.SelectorExpr); ok {
				b.devirtualize(info, from, sel)
			}
		case *ast.Ident:
			if inCall[e] {
				return true
			}
			if fn, ok := info.Uses[e].(*types.Func); ok {
				b.edge(from, fn, e.Pos(), true, false)
			}
		case *ast.SelectorExpr:
			if inCall[e] {
				return true
			}
			// Method value used as a function value: d.NFWrite passed
			// around. Package-qualified references (time.Now) resolve
			// through the Sel identifier on a later visit.
			if s, ok := info.Selections[e]; ok && s.Kind() == types.MethodVal {
				if fn, ok := s.Obj().(*types.Func); ok {
					inCall[e.Sel] = true // avoid a duplicate via Uses[Sel]
					b.edge(from, fn, e.Pos(), true, false)
				}
			}
		}
		return true
	})
}

// markConsumed records the callee expression and the identifiers inside
// it, so the reference pass does not re-count a call's own callee as a
// function-value reference.
func markConsumed(fun ast.Expr, inCall map[ast.Expr]bool) {
	inCall[fun] = true
	switch f := fun.(type) {
	case *ast.SelectorExpr:
		inCall[f.Sel] = true
	case *ast.IndexExpr:
		markConsumed(ast.Unparen(f.X), inCall)
	case *ast.IndexListExpr:
		markConsumed(ast.Unparen(f.X), inCall)
	}
}

// calleeOf resolves the statically-known callee of a call expression:
// a plain function, a package-qualified function, or a method call.
// Conversions, builtins, and calls through variables return nil.
func calleeOf(info *types.Info, fun ast.Expr) *types.Func {
	switch f := fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[f].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if s, ok := info.Selections[f]; ok {
			if s.Kind() == types.MethodVal || s.Kind() == types.MethodExpr {
				fn, _ := s.Obj().(*types.Func)
				return fn
			}
			return nil // field access; a call through it is dynamic
		}
		// Package-qualified: time.Now, engine.Run.
		if fn, ok := info.Uses[f.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.IndexExpr: // explicit instantiation: engine.Run[T](...)
		return calleeOf(info, ast.Unparen(f.X))
	case *ast.IndexListExpr:
		return calleeOf(info, ast.Unparen(f.X))
	}
	return nil
}

// devirtualize adds one dynamic edge per concrete module type that
// implements the interface a method call dispatches through.
func (b *graphBuilder) devirtualize(info *types.Info, from *Node, sel *ast.SelectorExpr) {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return
	}
	fn, ok := s.Obj().(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return
	}
	for _, named := range b.named {
		ptr := types.NewPointer(named)
		if !types.Implements(ptr, iface) && !types.Implements(named, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, fn.Pkg(), fn.Name())
		impl, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		b.edge(from, impl, sel.Pos(), false, true)
	}
}

// edge appends one edge from -> fn at pos.
func (b *graphBuilder) edge(from *Node, fn *types.Func, pos token.Pos, ref, dynamic bool) {
	to := b.funcNode(fn)
	if to == from {
		return // self-recursion adds nothing to reachability
	}
	from.Out = append(from.Out, &CallEdge{
		From: from, To: to,
		Pos:     b.fset.Position(pos),
		Ref:     ref,
		Dynamic: dynamic,
	})
}

// finalize sorts nodes deterministically, dedupes identical edges, and
// fills the reverse-edge lists in that order, so every traversal (and
// therefore every diagnostic path) is stable run to run.
func (g *Graph) finalize() {
	sort.Slice(g.Nodes, func(i, j int) bool {
		a, b := g.Nodes[i], g.Nodes[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	for _, n := range g.Nodes {
		seen := make(map[[2]any]bool, len(n.Out))
		kept := n.Out[:0]
		for _, e := range n.Out {
			key := [2]any{e.To, e.Pos}
			if seen[key] {
				continue
			}
			seen[key] = true
			kept = append(kept, e)
		}
		n.Out = kept
	}
	for _, n := range g.Nodes {
		for _, e := range n.Out {
			e.To.In = append(e.To.In, e)
		}
	}
}

// displayPkg shortens an import path for diagnostics: the last path
// element ("snic/internal/fleet" -> "fleet", "math/rand" -> "rand").
func displayPkg(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// funcDisplayName renders a function for call-path diagnostics:
// "time.Now", "engine.Run", "fleet.Manager.Advance".
func funcDisplayName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = displayPkg(fn.Pkg().Path()) + "."
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if recv := namedRecvName(sig.Recv().Type()); recv != "" {
			return pkg + recv + "." + fn.Name()
		}
	}
	return pkg + fn.Name()
}

// namedRecvName extracts the receiver's named-type name, or "" for
// interface receivers and other unnamed forms.
func namedRecvName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}
