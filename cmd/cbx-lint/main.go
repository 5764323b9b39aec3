// Command cbx-lint is CacheBox's static-analysis gate. It loads every
// package in the module using only the Go standard library, builds a
// module-wide call graph, and runs the internal/analysis analyzer
// suite: determinism (unseeded-rand, map-range-numeric,
// determinism-taint), robustness (unchecked-error, library-panic),
// concurrency (mutex-by-value, goroutine-leak), tensor-API hygiene
// (shape-arity), artifact durability (nonatomic-write), observability
// hygiene (span-leak) and performance (hot-path-alloc,
// unbounded-resource).
//
// Usage:
//
//	go run ./cmd/cbx-lint [flags] [packages]
//
// Packages are directory patterns relative to the module root:
// "./..." (default) lints the whole module, "./internal/..." a
// subtree, "./internal/nn" a single package. Findings print as
// file:line:col: [analyzer] message with module-relative paths; -json
// switches to a machine-readable array, -sarif to SARIF 2.1.0 for
// code-scanning upload. Load and analysis fan out over -j workers;
// output is byte-identical at every worker count.
//
// A committed baseline supports incremental adoption: -write-baseline
// records the current findings, and -baseline reports only findings
// absent from that file.
//
// Exit codes: 0 no findings, 1 findings remain, 2 the module failed to
// load or typecheck (type errors go to stderr and no analysis runs —
// analyzer output over broken type information is noise).
//
// Suppress an individual finding at its source line with
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"cachebox/internal/analysis"
	"cachebox/internal/sticky"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	out, errs := sticky.New(stdout), sticky.New(stderr)
	code := lint(args, out, errs)
	if out.Err() != nil {
		errs.Println("cbx-lint: writing findings failed:", out.Err())
	}
	if code == 0 && (out.Err() != nil || errs.Err() != nil) {
		code = 2
	}
	return code
}

func lint(args []string, out, errs *sticky.Writer) int {
	fs := flag.NewFlagSet("cbx-lint", flag.ContinueOnError)
	fs.SetOutput(errs)
	var (
		jsonOut   = fs.Bool("json", false, "emit findings as a JSON array")
		sarifOut  = fs.Bool("sarif", false, "emit findings as SARIF 2.1.0")
		enable    = fs.String("enable", "", "comma-separated analyzers to run (default: all)")
		disable   = fs.String("disable", "", "comma-separated analyzers to skip")
		list      = fs.Bool("list", false, "list available analyzers and exit")
		modDir    = fs.String("C", ".", "module root directory to lint")
		workers   = fs.Int("j", runtime.NumCPU(), "parallel load/analysis workers")
		timing    = fs.Bool("timing", false, "print per-analyzer wall time to stderr")
		baseline  = fs.String("baseline", "", "report only findings absent from this baseline file")
		writeBase = fs.String("write-baseline", "", "write current findings to this baseline file and exit 0")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jsonOut && *sarifOut {
		errs.Println("cbx-lint: -json and -sarif are mutually exclusive")
		return 2
	}
	if *workers < 1 {
		*workers = 1
	}

	root, err := findModuleRoot(*modDir)
	if err != nil {
		errs.Println("cbx-lint:", err)
		return 2
	}
	loader, err := analysis.NewLoader(root, "")
	if err != nil {
		errs.Println("cbx-lint:", err)
		return 2
	}

	analyzers := analysis.DefaultAnalyzers(loader.ModulePath)
	if *list {
		for _, a := range analyzers {
			out.Printf("%-20s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err = selectAnalyzers(analyzers, *enable, *disable)
	if err != nil {
		errs.Println("cbx-lint:", err)
		return 2
	}

	ctx := context.Background()
	pkgs, err := loader.LoadAllParallel(ctx, *workers)
	if err != nil {
		errs.Println("cbx-lint:", err)
		return 2
	}
	pkgs, err = filterPackages(pkgs, root, fs.Args())
	if err != nil {
		errs.Println("cbx-lint:", err)
		return 2
	}

	// Type errors are fatal: analyzer results over incomplete type
	// information are noise, and a silent pass over a broken package
	// would defeat the gate.
	broken := false
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			errs.Printf("cbx-lint: typecheck %s: %v\n", p.ImportPath, terr)
			broken = true
		}
	}
	if broken {
		return 2
	}

	findings, timings, err := analysis.RunParallel(ctx, *workers, pkgs, analyzers)
	if err != nil {
		errs.Println("cbx-lint:", err)
		return 2
	}
	relativize(findings, root)
	if *timing {
		printTimings(errs, timings)
	}

	if *writeBase != "" {
		if err := writeBaseline(*writeBase, findings); err != nil {
			errs.Println("cbx-lint:", err)
			return 2
		}
		errs.Printf("cbx-lint: wrote baseline with %d finding(s) to %s\n", len(findings), *writeBase)
		return 0
	}
	if *baseline != "" {
		known, err := readBaseline(*baseline)
		if err != nil {
			errs.Println("cbx-lint:", err)
			return 2
		}
		var fresh []analysis.Finding
		for _, f := range findings {
			if !known[baselineKey(f)] {
				fresh = append(fresh, f)
			}
		}
		if n := len(findings) - len(fresh); n > 0 {
			errs.Printf("cbx-lint: %d finding(s) matched the baseline\n", n)
		}
		findings = fresh
	}

	switch {
	case *jsonOut:
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []analysis.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			errs.Println("cbx-lint:", err)
			return 2
		}
	case *sarifOut:
		if err := writeSARIF(out, analyzers, findings); err != nil {
			errs.Println("cbx-lint:", err)
			return 2
		}
	default:
		for _, f := range findings {
			out.Println(f.String())
		}
		if len(findings) > 0 {
			out.Printf("cbx-lint: %d finding(s)\n", len(findings))
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// relativize rewrites finding paths relative to the module root with
// forward slashes, so output and baselines are machine-portable.
func relativize(findings []analysis.Finding, root string) {
	for i := range findings {
		if rel, err := filepath.Rel(root, findings[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			findings[i].Pos.Filename = filepath.ToSlash(rel)
		}
	}
}

// printTimings writes per-analyzer wall time (prepare + passes) to w,
// slowest first.
func printTimings(w *sticky.Writer, timings map[string]float64) {
	names := make([]string, 0, len(timings))
	for name := range timings {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if timings[names[i]] != timings[names[j]] {
			return timings[names[i]] > timings[names[j]]
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		w.Printf("cbx-lint: timing %-20s %8.1fms\n", name, timings[name]*1e3)
	}
}

// baselineEntry identifies one accepted finding. Line and column are
// deliberately absent: unrelated edits move findings around a file,
// and a baseline keyed on positions would go stale on every commit.
type baselineEntry struct {
	File     string `json:"file"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func baselineKey(f analysis.Finding) string {
	return f.Pos.Filename + "\x00" + f.Analyzer + "\x00" + f.Message
}

// writeBaseline records findings (already relativized) as a sorted,
// deduplicated JSON array suitable for committing.
func writeBaseline(path string, findings []analysis.Finding) error {
	seen := make(map[string]bool)
	entries := make([]baselineEntry, 0, len(findings))
	for _, f := range findings {
		if k := baselineKey(f); !seen[k] {
			seen[k] = true
			entries = append(entries, baselineEntry{File: f.Pos.Filename, Analyzer: f.Analyzer, Message: f.Message})
		}
	}
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readBaseline loads a baseline file into a lookup set.
func readBaseline(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []baselineEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	known := make(map[string]bool, len(entries))
	for _, e := range entries {
		var f analysis.Finding
		f.Pos.Filename, f.Analyzer, f.Message = e.File, e.Analyzer, e.Message
		known[baselineKey(f)] = true
	}
	return known, nil
}

// SARIF 2.1.0 skeleton — just the subset code-scanning consumers need.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

// writeSARIF renders findings as one SARIF run. Rules follow analyzer
// registration order and results follow finding order, so the document
// is deterministic.
func writeSARIF(w io.Writer, analyzers []*analysis.Analyzer, findings []analysis.Finding) error {
	rules := make([]sarifRule, 0, len(analyzers)+1)
	seen := make(map[string]bool)
	for _, a := range analyzers {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: a.Doc}})
		seen[a.Name] = true
	}
	for _, f := range findings {
		// The engine synthesizes lint-directive findings itself.
		if !seen[f.Analyzer] {
			rules = append(rules, sarifRule{ID: f.Analyzer, ShortDescription: sarifMessage{Text: "lint directive hygiene"}})
			seen[f.Analyzer] = true
		}
	}
	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		results = append(results, sarifResult{
			RuleID:  f.Analyzer,
			Level:   "warning",
			Message: sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: f.Pos.Filename},
				Region:           sarifRegion{StartLine: f.Pos.Line, StartColumn: f.Pos.Column},
			}}},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: sarifDriver{Name: "cbx-lint", Rules: rules}}, Results: results}},
	})
}

// findModuleRoot walks up from dir to the directory holding go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found above %s", abs)
		}
		d = parent
	}
}

// selectAnalyzers applies -enable / -disable.
func selectAnalyzers(all []*analysis.Analyzer, enable, disable string) ([]*analysis.Analyzer, error) {
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	out := all
	if enable != "" {
		out = nil
		for _, name := range strings.Split(enable, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				return nil, fmt.Errorf("unknown analyzer %q", name)
			}
			out = append(out, a)
		}
	}
	if disable != "" {
		skip := make(map[string]bool)
		for _, name := range strings.Split(disable, ",") {
			name = strings.TrimSpace(name)
			if _, ok := byName[name]; !ok {
				return nil, fmt.Errorf("unknown analyzer %q", name)
			}
			skip[name] = true
		}
		var kept []*analysis.Analyzer
		for _, a := range out {
			if !skip[a.Name] {
				kept = append(kept, a)
			}
		}
		out = kept
	}
	return out, nil
}

// filterPackages narrows the loaded package set to the requested
// patterns: "./..." keeps everything, "dir/..." a subtree, plain
// directories a single package. No patterns means everything.
func filterPackages(pkgs []*analysis.Package, root string, patterns []string) ([]*analysis.Package, error) {
	if len(patterns) == 0 {
		return pkgs, nil
	}
	var kept []*analysis.Package
	seen := make(map[string]bool)
	for _, pat := range patterns {
		recursive := false
		if pat == "all" || pat == "./..." || pat == "..." {
			return pkgs, nil
		}
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
		}
		dir := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
		if pat == "." || pat == "" {
			dir = root
		}
		matched := false
		for _, p := range pkgs {
			ok := p.Dir == dir || (recursive && strings.HasPrefix(p.Dir+string(filepath.Separator), dir+string(filepath.Separator)))
			if ok && !seen[p.ImportPath] {
				kept = append(kept, p)
				seen[p.ImportPath] = true
			}
			matched = matched || ok
		}
		if !matched {
			return nil, fmt.Errorf("pattern %q matched no packages", pat)
		}
	}
	return kept, nil
}
