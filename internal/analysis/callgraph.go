package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"math"
	"sort"
)

// CallSite is one resolved static call recorded in the call graph.
type CallSite struct {
	// Callee is the called function or method. It may belong to a
	// package outside the loaded set (stdlib), in which case the graph
	// holds no FuncInfo for it.
	Callee *types.Func
	// Call is the call expression at the site.
	Call *ast.CallExpr
	// Pos locates the call for reporting.
	Pos token.Pos
	// Go marks call sites that are the operand of a go statement.
	Go bool
}

// FuncInfo is the call graph's node: one module function or method
// whose body was loaded, with every static call it makes.
type FuncInfo struct {
	// Fn is the function object; the node's identity.
	Fn *types.Func
	// Pkg is the loaded package declaring the function.
	Pkg *Package
	// Decl is the function's syntax, body included.
	Decl *ast.FuncDecl
	// Calls lists resolved call sites in source order. Calls made
	// inside function literals are attributed to the enclosing
	// declared function (flow-insensitive: a closure's calls count as
	// the closure creator's calls).
	Calls []CallSite
	// GoLiterals are function literals launched with `go` directly
	// inside this function (including inside nested literals).
	GoLiterals []*ast.GoStmt
}

// CallerEdge is one reverse edge: Caller contains Site, whose callee
// is the function the edge is attached to.
type CallerEdge struct {
	Caller *types.Func
	Site   CallSite
}

// CallGraph is the module-wide static call graph over every loaded
// package. Only calls whose callee resolves statically are recorded:
// direct calls, package-qualified calls and method calls with a known
// concrete receiver. Calls through function values and interface
// methods are not resolved — analyses built on the graph are
// explicitly flow-insensitive under-approximations.
type CallGraph struct {
	funcs map[*types.Func]*FuncInfo
	// order fixes a deterministic node iteration order: packages in
	// load order, files and declarations in source order.
	order []*types.Func
	// fset and fileRank give every loaded file its load-order index,
	// the basis of srcOrder.
	fset     *token.FileSet
	fileRank map[*token.File]int

	callers map[*types.Func][]CallerEdge
}

// BuildCallGraph constructs the graph over the given packages. The
// package slice order fixes node order, so identical inputs produce an
// identical graph regardless of how packages were loaded.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{funcs: make(map[*types.Func]*FuncInfo), fileRank: make(map[*token.File]int)}
	for _, pkg := range pkgs {
		g.fset = pkg.Fset
		for _, file := range pkg.Syntax {
			g.fileRank[pkg.Fset.File(file.FileStart)] = len(g.fileRank)
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				info := &FuncInfo{Fn: fn, Pkg: pkg, Decl: fd}
				collectCalls(pkg, fd.Body, info)
				g.funcs[fn] = info
				g.order = append(g.order, fn)
			}
		}
	}
	return g
}

// srcOrder keys a position by load order: package index, file index
// within the package, then byte offset. Raw token.Pos order is file-set
// insertion order, which a parallel parse leaves to chance; this key is
// the order a serial load gives. Positions outside the loaded files
// sort last.
func (g *CallGraph) srcOrder(pos token.Pos) int64 {
	if g.fset != nil {
		if f := g.fset.File(pos); f != nil {
			if rank, ok := g.fileRank[f]; ok {
				return int64(rank)<<32 | int64(f.Offset(pos))
			}
		}
	}
	return math.MaxInt64
}

// collectCalls walks body recording every statically resolvable call.
func collectCalls(pkg *Package, body *ast.BlockStmt, info *FuncInfo) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if _, ok := n.Call.Fun.(*ast.FuncLit); ok {
				info.GoLiterals = append(info.GoLiterals, n)
			} else if callee := resolveCallee(pkg, n.Call); callee != nil {
				info.Calls = append(info.Calls, CallSite{Callee: callee, Call: n.Call, Pos: n.Call.Pos(), Go: true})
			}
			// Walk the call's arguments (and a literal's body) for
			// further calls, but skip re-recording the go call itself.
			for _, arg := range n.Call.Args {
				ast.Inspect(arg, func(m ast.Node) bool { recordCall(pkg, m, info); return true })
			}
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool { recordCall(pkg, m, info); return true })
			}
			return false
		case *ast.CallExpr:
			recordCall(pkg, n, info)
		}
		return true
	})
}

// recordCall appends n to info.Calls when n is a resolvable call.
func recordCall(pkg *Package, n ast.Node, info *FuncInfo) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return
	}
	if callee := resolveCallee(pkg, call); callee != nil {
		info.Calls = append(info.Calls, CallSite{Callee: callee, Call: call, Pos: call.Pos()})
	}
}

// resolveCallee returns the static callee of call, or nil when the
// callee is a function value, an interface method, a builtin or a type
// conversion.
func resolveCallee(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.TypesInfo.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.TypesInfo.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				// Interface method calls have no body anywhere in the
				// graph; keep them anyway — matchers keying on
				// FullName can still recognise them.
				return fn
			}
			return nil
		}
		// Package-qualified call: pkg.Func.
		if fn, ok := pkg.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// Funcs returns every node in deterministic order.
func (g *CallGraph) Funcs() []*FuncInfo {
	out := make([]*FuncInfo, len(g.order))
	for i, fn := range g.order {
		out[i] = g.funcs[fn]
	}
	return out
}

// Lookup returns the node for fn, or nil when fn's body was not loaded
// (stdlib functions, interface methods, functions without bodies).
func (g *CallGraph) Lookup(fn *types.Func) *FuncInfo {
	return g.funcs[fn]
}

// Callers returns the reverse adjacency of the graph, memoized. Edge
// slices are ordered by call-site load order (srcOrder), so traversals
// over them are deterministic at any parse width. Not safe for concurrent
// first use; Program.Prepare-time callers should build it before
// parallel passes run (NewProgram does).
func (g *CallGraph) Callers() map[*types.Func][]CallerEdge {
	if g.callers != nil {
		return g.callers
	}
	g.callers = make(map[*types.Func][]CallerEdge)
	for _, fn := range g.order {
		info := g.funcs[fn]
		for _, site := range info.Calls {
			g.callers[site.Callee] = append(g.callers[site.Callee], CallerEdge{Caller: fn, Site: site})
		}
	}
	for _, edges := range g.callers {
		sort.SliceStable(edges, func(i, j int) bool { return g.srcOrder(edges[i].Site.Pos) < g.srcOrder(edges[j].Site.Pos) })
	}
	return g.callers
}
