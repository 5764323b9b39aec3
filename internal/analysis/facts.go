package analysis

import (
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Program is the whole-program view shared by every analyzer in one
// run: the loaded packages plus the module-wide call graph. It is
// built once (NewProgram), analyzers derive facts from it in their
// Prepare hook, and the per-package passes then read those facts —
// Program itself is immutable once passes start, so parallel passes
// need no locking.
type Program struct {
	Pkgs  []*Package
	Graph *CallGraph
}

// NewProgram builds the program view over pkgs, including the reverse
// call graph so later concurrent reads hit only immutable state.
func NewProgram(pkgs []*Package) *Program {
	g := BuildCallGraph(pkgs)
	g.Callers()
	return &Program{Pkgs: pkgs, Graph: g}
}

// Seed is one function that directly exhibits a property a backward
// trace starts from: fn contains the interesting thing (a call to a
// nondeterministic source, a map range, ...) at Pos, described by What.
type Seed struct {
	Fn   *types.Func
	Pos  token.Pos
	What string
}

// Trace is the result of a backward reachability pass: for every
// function that can reach a seed through the call graph, the next call
// site on a shortest path toward it. Breadth-first layering plus
// deterministic edge order make the recorded path identical across
// runs and worker counts.
type Trace struct {
	prog *Program
	// next maps a reaching function to the call site leading one hop
	// closer to its seed; absent for seed functions themselves.
	next map[*types.Func]CallSite
	// seed maps every reaching function to the seed it reaches.
	seed map[*types.Func]Seed
}

// Backward computes which functions can reach one of seeds through
// the call graph. skip (optional) prunes traversal: a function for
// which skip returns true neither seeds nor propagates reachability —
// use it to exempt infrastructure packages whose internals are out of
// scope.
func (p *Program) Backward(seeds []Seed, skip func(*types.Func) bool) *Trace {
	t := &Trace{
		prog: p,
		next: make(map[*types.Func]CallSite),
		seed: make(map[*types.Func]Seed),
	}
	sort.SliceStable(seeds, func(i, j int) bool { return p.Graph.srcOrder(seeds[i].Pos) < p.Graph.srcOrder(seeds[j].Pos) })
	var frontier []*types.Func
	for _, s := range seeds {
		if skip != nil && skip(s.Fn) {
			continue
		}
		if _, ok := t.seed[s.Fn]; ok {
			continue
		}
		t.seed[s.Fn] = s
		frontier = append(frontier, s.Fn)
	}
	callers := p.Graph.Callers()
	for len(frontier) > 0 {
		var nextFrontier []*types.Func
		for _, fn := range frontier {
			for _, edge := range callers[fn] {
				if _, ok := t.seed[edge.Caller]; ok {
					continue
				}
				if skip != nil && skip(edge.Caller) {
					continue
				}
				t.seed[edge.Caller] = t.seed[fn]
				t.next[edge.Caller] = edge.Site
				nextFrontier = append(nextFrontier, edge.Caller)
			}
		}
		frontier = nextFrontier
	}
	return t
}

// Reaches reports whether fn can reach a seed, with the seed it
// reaches.
func (t *Trace) Reaches(fn *types.Func) (Seed, bool) {
	s, ok := t.seed[fn]
	return s, ok
}

// Path renders the shortest recorded call chain from fn to its seed as
// "fn → callee → ... → seed", using package-qualified short names. The
// seed's What is appended as the final element when it differs from
// the seed function's own name.
func (t *Trace) Path(fn *types.Func) string {
	if _, ok := t.seed[fn]; !ok {
		return ""
	}
	var parts []string
	cur := fn
	for {
		parts = append(parts, shortFuncName(cur))
		site, ok := t.next[cur]
		if !ok {
			break
		}
		cur = site.Callee
	}
	s := t.seed[fn]
	if last := parts[len(parts)-1]; s.What != "" && !strings.HasSuffix(last, s.What) {
		parts = append(parts, s.What)
	}
	return strings.Join(parts, " → ")
}

// SeedPos returns the source position of fn's seed, for reporting.
func (t *Trace) SeedPos(fn *types.Func) token.Pos {
	return t.seed[fn].Pos
}

// shortFuncName renders fn as pkgbase.Func or pkgbase.(Type).Method.
func shortFuncName(fn *types.Func) string {
	name := fn.Name()
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			name = "(" + named.Obj().Name() + ")." + name
		}
	}
	if fn.Pkg() != nil {
		base := fn.Pkg().Path()
		if i := strings.LastIndex(base, "/"); i >= 0 {
			base = base[i+1:]
		}
		return base + "." + name
	}
	return name
}

// pkgPathOf returns the declaring package path of fn ("" for
// builtins/universe functions).
func pkgPathOf(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}
