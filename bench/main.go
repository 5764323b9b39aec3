// Command bench is the repository's one benchmark harness: four named
// workloads over the trace→hit-rate, serving and training paths, the
// end-to-end metrics BENCHMARK.json declares for them, and a per-layer
// table from a separate traced run. README.md in this directory says
// why each workload and constant was chosen.
//
//	go run ./bench -workload truth-sweep            # end-to-end metrics
//	go run ./bench -workload truth-sweep -trace 1   # per-layer metrics + Chrome trace
//	go run ./bench -all -out result.json            # every workload, both ways
//	go run ./bench -compare a1.json,a2.json b1.json,b2.json
//
// One invocation is one measured pass of one workload in a fresh
// process; repeats are separate invocations. The last line of standard
// output is one JSON object {correct, attempted, failed, metrics}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// processStart is read before main runs: setup_s counts from here.
var processStart = time.Now()

func main() {
	os.Exit(realMain(processStart, os.Args[1:], os.Stdout, os.Stderr))
}

// options is one invocation's command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale shrinks every workload's problem size; the smoke test runs
	// at ~1/50. Results at a scale other than 1 are not comparable.
	scale    float64
	out      string
	specPath string
	// workDir holds temp stores and trace files; it must lie inside
	// the checkout, which is all a benchmark run may write to.
	workDir string
	// writeGolden, when set, is where truth-sweep or offline-eval
	// writes its golden file instead of checking it.
	writeGolden string
}

// errorf reports why the run stops, on standard error.
func errorf(stderr io.Writer, format string, args ...any) {
	//lint:ignore unchecked-error a failed diagnostic write has no further recourse
	fmt.Fprintf(stderr, "bench: "+format+"\n", args...)
}

// printer writes the report and remembers the first write error, so
// the run fails if its results could not be printed.
type printer struct {
	w   io.Writer
	err error
}

func (p *printer) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

// realMain is one invocation; start is when its process started.
func realMain(start time.Time, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&opt.seed, "seed", 1, "offsets every benchmark seed, the split, the request mix and model init")
	fs.Float64Var(&opt.seconds, "seconds", 0, "measured time in seconds (default: run_seconds of the spec)")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	fs.Float64Var(&opt.scale, "scale", 1, "problem-size factor; only 1 is comparable (the smoke test uses 0.02)")
	fs.StringVar(&opt.out, "out", "", "also write the result file here")
	fs.StringVar(&opt.specPath, "spec", "BENCHMARK.json", "path of BENCHMARK.json")
	fs.StringVar(&opt.workDir, "workdir", ".bench_build", "directory for temp stores and trace files")
	all := fs.Bool("all", false, "run every workload untraced and traced, one fresh process each")
	compare := fs.Bool("compare", false, "compare two comma-separated sets of result files: -compare a1,a2 b1,b2")
	fs.StringVar(&opt.writeGolden, "write-golden", "", "with -workload truth-sweep or offline-eval: write the golden file here instead of checking it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		errorf(stderr, "-trace must be 0 or 1")
		return 2
	}
	opt.trace = trace == 1

	sp, err := loadSpec(opt.specPath)
	if err != nil {
		errorf(stderr, "%v", err)
		return 2
	}
	if opt.seconds <= 0 {
		opt.seconds = float64(sp.RunSeconds)
	}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			errorf(stderr, "-compare takes two comma-separated sets of result files")
			return 2
		}
		code, err := compareFiles(stdout, sp, fs.Arg(0), fs.Arg(1))
		if err != nil {
			errorf(stderr, "%v", err)
			return 2
		}
		return code
	case *all:
		return runAll(opt, sp, stdout, stderr)
	case opt.workload == "":
		errorf(stderr, "need -workload, -all or -compare")
		fs.Usage()
		return 2
	}

	out := &printer{w: stdout}
	rec, err := runWorkload(opt, sp, start, out)
	if err == nil && opt.out != "" {
		err = writeResultFile(opt.out, []runRecord{*rec})
	}
	if err != nil {
		errorf(stderr, "%v", err)
		return 1
	}
	// The contract's last line: exactly these four keys.
	line, err := json.Marshal(rec.Result)
	if err != nil {
		errorf(stderr, "%v", err)
		return 1
	}
	out.printf("%s\n", line)
	if out.err != nil {
		errorf(stderr, "%v", out.err)
		return 1
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the contract's per-run object.
type Result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is one run as the result file keeps it.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	Scale    float64 `json:"scale"`
	Result
	// Info holds the run's context: wall time, sample counts, host.
	Info map[string]any `json:"info"`
	// Failures lists every failed operation or correctness check.
	Failures []string `json:"failures,omitempty"`
}

// resultFile is what -out and -all write and -compare reads.
type resultFile struct {
	Schema int         `json:"schema"`
	Host   hostInfo    `json:"host"`
	Runs   []runRecord `json:"runs"`
	// Claim is always null: the harness records, it does not claim.
	Claim *string `json:"claim"`
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func host() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func writeResultFile(path string, runs []runRecord) error {
	data, err := json.MarshalIndent(resultFile{Schema: 1, Host: host(), Runs: runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// runWorkload executes one workload in this process and prints its
// metrics by name with their units.
func runWorkload(opt options, sp *spec, start time.Time, out *printer) (*runRecord, error) {
	wl, ok := workloads[opt.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", opt.workload, strings.Join(workloadNames(), ", "))
	}
	if !sp.hasWorkload(opt.workload) {
		return nil, fmt.Errorf("workload %q is not declared in %s", opt.workload, opt.specPath)
	}
	if err := os.MkdirAll(opt.workDir, 0o755); err != nil {
		return nil, err
	}
	r := newRun(opt, sp, start)
	//lint:ignore determinism-taint the trace file holds wall-clock spans: a measurement, not a reproducible artifact
	if err := r.execute(wl.setup); err != nil {
		return nil, err
	}
	r.info["wall_s"] = time.Since(start).Seconds()

	// Every workload reports every end-to-end metric; on the traced run
	// it reports exactly the layer metrics it lists, so a probe that
	// stops reporting fails the run instead of reading 0.
	declared, must := sp.EndToEnd, sp.names(sp.EndToEnd)
	if opt.trace {
		declared, must = sp.PerLayer, wl.layers
	}
	for _, name := range must {
		if _, ok := r.vals[name]; !ok {
			return nil, fmt.Errorf("workload %s did not report metric %s", opt.workload, name)
		}
	}
	if len(r.vals) != len(must) {
		return nil, fmt.Errorf("workload %s reported %d metrics, its list has %d", opt.workload, len(r.vals), len(must))
	}
	res := Result{Metrics: make(map[string]metricValue, len(declared))}
	for _, d := range declared {
		// A layer the workload bypasses (one not on its list) did no
		// work: its counts and times are zero.
		res.Metrics[d.Name] = metricValue{Value: r.vals[d.Name], Unit: d.Unit}
	}
	res.Attempted, res.Failed = r.attempted, r.failed
	res.Correct = r.failed == 0 && r.attempted > 0

	out.printf("workload %s seed %d seconds %g trace %d scale %g\n",
		opt.workload, opt.seed, opt.seconds, b2i(opt.trace), opt.scale)
	for _, d := range declared {
		out.printf("  %-40s %16.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	keys := make([]string, 0, len(r.info))
	for k := range r.info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out.printf("  info %-35s %v\n", k, r.info[k])
	}
	h := host()
	out.printf("  host nproc=%d GOMAXPROCS=%d %s %s/%s commit=%s\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.GOOS, h.GOARCH, h.Commit)
	out.printf("  attempted %d failed %d\n", res.Attempted, res.Failed)
	for _, f := range r.failures {
		out.printf("  FAIL %s\n", f)
	}
	return &runRecord{
		Workload: opt.workload, Seed: opt.seed, Seconds: opt.seconds,
		Trace: b2i(opt.trace), Scale: opt.scale,
		Result: res, Info: r.info, Failures: r.failures,
	}, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runAll runs every declared workload untraced then traced, each in a
// fresh child process so no workload inherits another's heap, caches
// or peak RSS, and merges the children's result files.
func runAll(opt options, sp *spec, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		errorf(stderr, "%v", err)
		return 1
	}
	// Parts go beside -out, so each child's trace file lands there too.
	dir := opt.workDir
	if opt.out != "" {
		dir = filepath.Dir(opt.out)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		errorf(stderr, "%v", err)
		return 1
	}

	var runs []runRecord
	code := 0
	for _, w := range sp.Workloads {
		for _, trace := range []int{0, 1} {
			part := filepath.Join(dir, fmt.Sprintf(".part.%s.%d.json", w.Name, trace))
			cmd := exec.Command(exe,
				"-workload", w.Name,
				"-seed", fmt.Sprint(opt.seed),
				"-seconds", fmt.Sprint(opt.seconds),
				"-trace", fmt.Sprint(trace),
				"-scale", fmt.Sprint(opt.scale),
				"-spec", opt.specPath,
				"-workdir", opt.workDir,
				"-out", part)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				errorf(stderr, "%s trace %d: %v", w.Name, trace, err)
				code = 1
			}
			rf, err := readResultFile(part)
			if rerr := os.Remove(part); err == nil {
				err = rerr
			}
			if err != nil {
				errorf(stderr, "%v", err)
				code = 1
				continue
			}
			runs = append(runs, rf.Runs...)
		}
	}
	if opt.out != "" {
		if err := writeResultFile(opt.out, runs); err != nil {
			errorf(stderr, "%v", err)
			return 1
		}
	}
	return code
}
