package analysis

import (
	"context"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"cachebox/internal/par"
)

// Package is one loaded, typechecked module package.
type Package struct {
	// ImportPath is the full import path (module path + relative dir).
	ImportPath string
	// Dir is the absolute directory holding the package sources.
	Dir string
	// Syntax holds the parsed non-test files, sorted by file name.
	Syntax []*ast.File
	// Fset positions all syntax and type information.
	Fset *token.FileSet
	// Types is the typechecked package (never nil, possibly incomplete
	// when TypeErrors is non-empty).
	Types *types.Package
	// TypesInfo maps syntax to type information.
	TypesInfo *types.Info
	// TypeErrors collects typechecking problems; analyzers still run.
	TypeErrors []error
}

// Loader parses and typechecks the packages of a single module using
// only the standard library. Module-internal imports are resolved by
// recursively typechecking their source directories; all other imports
// are delegated to the process's shared source importer (stdImport).
type Loader struct {
	// ModulePath is the module's import path, e.g. "cachebox".
	ModulePath string
	// ModuleDir is the absolute root directory of the module.
	ModuleDir string

	fset    *token.FileSet
	build   build.Context
	pkgs    map[string]*Package    // by import path
	parsed  map[string][]*ast.File // pre-parsed syntax by directory (parallel parse phase)
	loading map[string]bool        // cycle guard
}

// NewLoader builds a loader rooted at moduleDir. The module path is
// read from go.mod when modulePath is empty.
func NewLoader(moduleDir, modulePath string) (*Loader, error) {
	abs, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, err
	}
	if modulePath == "" {
		modulePath, err = readModulePath(filepath.Join(abs, "go.mod"))
		if err != nil {
			return nil, err
		}
	}
	return &Loader{
		ModulePath: modulePath,
		ModuleDir:  abs,
		fset:       token.NewFileSet(),
		build:      build.Default,
		pkgs:       make(map[string]*Package),
		parsed:     make(map[string][]*ast.File),
		loading:    make(map[string]bool),
	}, nil
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("no module directive in %s", gomod)
}

// LoadAll discovers every package directory under the module root
// (skipping testdata, hidden and vendor directories), loads each one,
// and returns them sorted by import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	return l.LoadAllParallel(context.Background(), 1)
}

// LoadAllParallel is LoadAll with the parse phase fanned out over an
// internal/par pool of the given width. Parsing dominates load time
// and is embarrassingly parallel (token.FileSet is safe for concurrent
// AddFile); typechecking stays serial in sorted import-path order so
// package objects, and therefore analyzer output, are identical at any
// worker count.
func (l *Loader) LoadAllParallel(ctx context.Context, workers int) ([]*Package, error) {
	dirs, err := l.discoverDirs()
	if err != nil {
		return nil, err
	}
	syntax, err := par.Map(ctx, workers, dirs, func(_ context.Context, _ int, dir string) ([]*ast.File, error) {
		return l.parseDir(dir)
	})
	if err != nil {
		return nil, err
	}
	for i, dir := range dirs {
		l.parsed[dir] = syntax[i]
	}
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// discoverDirs walks the module for package directories, sorted.
func (l *Loader) discoverDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModuleDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModuleDir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		if l.hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// LoadDir loads the package in a single directory under the module.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.ModuleDir, abs)
	if err != nil {
		return nil, err
	}
	path := l.ModulePath
	if rel != "." {
		path = l.ModulePath + "/" + filepath.ToSlash(rel)
	}
	return l.load(path, abs)
}

// hasGoFiles reports whether dir directly contains non-test .go files
// that survive build-constraint filtering.
func (l *Loader) hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && l.wantFile(dir, e.Name()) {
			return true
		}
	}
	return false
}

// wantFile reports whether name is a non-test .go file that matches
// the loader's build context. go/build's MatchFile honours both
// filename GOOS/GOARCH suffixes (foo_windows.go) and //go:build /
// legacy +build lines, so an `ignore`-tagged helper or a
// foreign-platform file cannot poison the whole lint gate with parse
// or type errors for code that would never compile here anyway.
func (l *Loader) wantFile(dir, name string) bool {
	if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
		return false
	}
	match, err := l.build.MatchFile(dir, name)
	return err == nil && match
}

// parseDir parses the build-matched files of one directory, sorted by
// file name for deterministic syntax order.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		if e.IsDir() || !l.wantFile(dir, e.Name()) {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// load parses and typechecks one package directory, memoized by path.
func (l *Loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	files, ok := l.parsed[dir]
	if !ok {
		var err error
		files, err = l.parseDir(dir)
		if err != nil {
			return nil, err
		}
		l.parsed[dir] = files
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no buildable Go files in %s", dir)
	}

	pkg := &Package{ImportPath: path, Dir: dir, Syntax: files, Fset: l.fset}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if tpkg == nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	pkg.Types = tpkg
	pkg.TypesInfo = info
	l.pkgs[path] = pkg
	return pkg, nil
}

// stdImporter type-checks the standard library from GOROOT source, the
// bulk of a load's cost. One instance serves every Loader in the
// process, so each stdlib package is checked once, not once per loader;
// the mutex serialises it, since the source importer is not safe for
// concurrent use. Its packages are positioned in its own FileSet, not a
// loader's, so analyzers format and order only module positions.
var stdImporter = struct {
	sync.Mutex
	imp types.Importer
}{imp: importer.ForCompiler(token.NewFileSet(), "source", nil)}

func stdImport(path string) (*types.Package, error) {
	stdImporter.Lock()
	defer stdImporter.Unlock()
	return stdImporter.imp.Import(path)
}

// loaderImporter adapts Loader to types.Importer: module-internal
// import paths are loaded from source, everything else (stdlib) goes
// through stdImport.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		pkg, err := l.load(path, filepath.Join(l.ModuleDir, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return stdImport(path)
}
