package analysis

import (
	"go/ast"
	"go/parser"
	"go/types"
	"path/filepath"
	"slices"
	"testing"
)

// graphFixture loads the callgraph fixture and builds its graph.
func graphFixture(t *testing.T) (*Program, map[string]*FuncInfo) {
	t.Helper()
	pkg := loadFixture(t, "callgraph")
	prog := NewProgram([]*Package{pkg})
	byName := make(map[string]*FuncInfo)
	for _, info := range prog.Graph.Funcs() {
		byName[info.Fn.Name()] = info
	}
	return prog, byName
}

// calleeNames flattens a node's call sites to callee names.
func calleeNames(info *FuncInfo) []string {
	var names []string
	for _, site := range info.Calls {
		names = append(names, site.Callee.Name())
	}
	return names
}

func TestCallGraphNodesAndEdges(t *testing.T) {
	_, byName := graphFixture(t)

	for _, name := range []string{"Top", "Mid", "Leaf", "Bump", "Spawn", "SpawnLit", "Closure", "worker", "sideEffect"} {
		if byName[name] == nil {
			t.Fatalf("no node for %s", name)
		}
	}

	if got := calleeNames(byName["Top"]); len(got) != 1 || got[0] != "Mid" {
		t.Errorf("Top calls %v, want [Mid]", got)
	}
	if got := calleeNames(byName["Leaf"]); len(got) != 1 || got[0] != "Now" {
		t.Errorf("Leaf calls %v, want [Now] (stdlib callees are recorded)", got)
	}
	if got := calleeNames(byName["Bump"]); len(got) != 1 || got[0] != "Top" {
		t.Errorf("Bump calls %v, want [Top]", got)
	}
}

func TestCallGraphGoStatements(t *testing.T) {
	_, byName := graphFixture(t)

	spawn := byName["Spawn"]
	if len(spawn.Calls) != 1 || spawn.Calls[0].Callee.Name() != "worker" || !spawn.Calls[0].Go {
		t.Errorf("Spawn calls = %+v, want one Go-flagged site for worker", spawn.Calls)
	}

	lit := byName["SpawnLit"]
	if len(lit.GoLiterals) != 1 {
		t.Fatalf("SpawnLit has %d go literals, want 1", len(lit.GoLiterals))
	}
	// The literal's body call attributes to the spawning function.
	if got := calleeNames(lit); len(got) != 1 || got[0] != "sideEffect" {
		t.Errorf("SpawnLit calls %v, want [sideEffect]", got)
	}
}

func TestCallGraphClosureAttribution(t *testing.T) {
	_, byName := graphFixture(t)
	// Leaf() inside the literal counts as Closure's call; the dynamic
	// f() invocation is unresolvable and must not be recorded.
	if got := calleeNames(byName["Closure"]); len(got) != 1 || got[0] != "Leaf" {
		t.Errorf("Closure calls %v, want [Leaf]", got)
	}
}

func TestCallGraphCallers(t *testing.T) {
	prog, byName := graphFixture(t)
	callers := prog.Graph.Callers()
	edges := callers[byName["Leaf"].Fn]
	var names []string
	for _, e := range edges {
		names = append(names, e.Caller.Name())
	}
	if len(names) != 2 || names[0] != "Mid" || names[1] != "Closure" {
		t.Errorf("callers of Leaf = %v, want [Mid Closure] in source order", names)
	}
}

func TestCallGraphDeterministicOrder(t *testing.T) {
	pkg := loadFixture(t, "callgraph")
	var runs [2][]string
	for i := range runs {
		for _, info := range BuildCallGraph([]*Package{pkg}).Funcs() {
			runs[i] = append(runs[i], info.Fn.Name())
		}
	}
	if len(runs[0]) == 0 {
		t.Fatal("empty graph")
	}
	for i := range runs[0] {
		if runs[0][i] != runs[1][i] {
			t.Fatalf("node order differs between builds: %v vs %v", runs[0], runs[1])
		}
	}
}

func TestBackwardTrace(t *testing.T) {
	prog, byName := graphFixture(t)
	leaf := byName["Leaf"]

	// Seed at Leaf's time.Now call.
	seeds := []Seed{{Fn: leaf.Fn, Pos: leaf.Calls[0].Pos, What: "time.Now"}}
	trace := prog.Backward(seeds, nil)

	for _, name := range []string{"Leaf", "Mid", "Top", "Bump", "Closure"} {
		if _, ok := trace.Reaches(byName[name].Fn); !ok {
			t.Errorf("%s should reach the seed", name)
		}
	}
	if _, ok := trace.Reaches(byName["Spawn"].Fn); ok {
		t.Error("Spawn must not reach the seed")
	}

	want := "callgraph.Top → callgraph.Mid → callgraph.Leaf → time.Now"
	if got := trace.Path(byName["Top"].Fn); got != want {
		t.Errorf("Path(Top) = %q, want %q", got, want)
	}
	if pos := trace.SeedPos(byName["Top"].Fn); pos != leaf.Calls[0].Pos {
		t.Errorf("SeedPos(Top) = %v, want the seed call position", pos)
	}
}

func TestBackwardTraceSkip(t *testing.T) {
	prog, byName := graphFixture(t)
	leaf := byName["Leaf"]
	seeds := []Seed{{Fn: leaf.Fn, Pos: leaf.Calls[0].Pos, What: "time.Now"}}

	skipMid := func(fn *types.Func) bool { return fn.Name() == "Mid" }
	trace := prog.Backward(seeds, skipMid)

	// Closure still reaches Leaf directly; Mid is pruned, cutting off
	// Top and Bump.
	if _, ok := trace.Reaches(byName["Closure"].Fn); !ok {
		t.Error("Closure should reach the seed without going through Mid")
	}
	for _, name := range []string{"Mid", "Top", "Bump"} {
		if _, ok := trace.Reaches(byName[name].Fn); ok {
			t.Errorf("%s must be cut off when Mid is skipped", name)
		}
	}
}

// programParsedIn loads fixture package order with its files added to
// the file set in the given order. Raw token.Pos order then follows
// parse order rather than file order, as under a parallel load.
func programParsedIn(t *testing.T, names ...string) *Program {
	t.Helper()
	loader, err := NewLoader(filepath.Join("testdata", "src"), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(loader.ModuleDir, "order")
	byName := make(map[string]*ast.File)
	for _, name := range names {
		f, err := parser.ParseFile(loader.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		byName[name] = f
	}
	loader.parsed[dir] = []*ast.File{byName["a.go"], byName["b.go"]}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return NewProgram([]*Package{pkg})
}

// TestBackwardIgnoresParseOrder: the hop a backward trace records must
// follow file order however the file set was filled, or lint output
// would depend on -j.
func TestBackwardIgnoresParseOrder(t *testing.T) {
	paths := func(prog *Program) []string {
		var seeds []Seed
		for _, info := range prog.Graph.Funcs() {
			for _, site := range info.Calls {
				if site.Callee.FullName() == "os.WriteFile" {
					seeds = append(seeds, Seed{Fn: info.Fn, Pos: site.Pos, What: "os.WriteFile"})
				}
			}
		}
		trace := prog.Backward(seeds, nil)
		var out []string
		for _, info := range prog.Graph.Funcs() {
			out = append(out, trace.Path(info.Fn))
		}
		return out
	}
	inOrder := paths(programParsedIn(t, "a.go", "b.go"))
	reversed := paths(programParsedIn(t, "b.go", "a.go"))
	if !slices.Equal(inOrder, reversed) {
		t.Fatalf("paths depend on parse order:\n a.go first: %q\n b.go first: %q", inOrder, reversed)
	}
	for _, want := range []string{
		"order.Meet → order.SinkA → os.WriteFile",
		"order.Meet2 → order.ViaA → order.Commit → os.WriteFile",
	} {
		if !slices.Contains(inOrder, want) {
			t.Errorf("no path %q in %q", want, inOrder)
		}
	}
}
