// Command cachebox is the CacheBox-Go CLI for the paper's toolflow,
// `cachebox <command> [flags]`, exiting 0 on success, 1 on failure and
// 2 on a usage error:
//
//	list      list the available synthetic benchmarks
//	trace     generate a benchmark's trace (binary format) to a file
//	simulate  run a trace (or benchmark) through a cache and print stats
//	heatmap   render a benchmark's access/miss heatmaps to PNG files
//	phases    SimPoint-style phase analysis of a benchmark or trace
//	train     train a CB-GAN on a suite and save the model
//	evaluate  evaluate a trained model on held-out benchmarks
//	baseline  stats|reuse|predict: trace statistics and baseline predictors
//	store     ls|info|cat|put|verify|gc|rm: the content-addressed artifact store
//	dataset   build|ls|stat|verify: sharded streaming training datasets
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"strings"

	"cachebox"
	"cachebox/internal/cachesim"
	"cachebox/internal/obs"
	"cachebox/internal/simpoint"
	"cachebox/internal/sticky"
	"cachebox/internal/trace"
	"cachebox/internal/workload"
)

const usage = `usage: cachebox <command> [flags]
commands: list, trace, simulate, heatmap, phases, train, evaluate,
  baseline <stats|reuse|predict>, store [-store DIR] <ls|info|cat|put|verify|gc|rm>,
  dataset [-store DIR] <build|ls|stat|verify>
run "cachebox <command> -h" for its flags`

var commands = map[string]func(*cli, []string) error{
	"list": (*cli).list, "trace": (*cli).trace, "simulate": (*cli).simulate,
	"heatmap": (*cli).heatmap, "phases": (*cli).phases, "train": (*cli).train,
	"evaluate": (*cli).evaluate, "baseline": (*cli).baseline,
	"store": (*cli).store, "dataset": (*cli).dataset,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// usageError is exit code 2. An empty one was already reported by the
// flag package.
type usageError string

func (e usageError) Error() string { return string(e) }

// run dispatches one command line and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	c := &cli{sticky.New(stdout), stderr}
	errs := log.New(stderr, "", 0)
	var err error
	switch {
	case len(args) == 0:
		err = usageError(usage)
	case args[0] == "-h" || args[0] == "--help" || args[0] == "help":
		errs.Print(usage)
		return 0
	case commands[args[0]] == nil:
		err = usageError(fmt.Sprintf("unknown command %q\n%s", args[0], usage))
	default:
		err = commands[args[0]](c, args[1:])
	}
	if err == nil {
		err = c.Err()
	}
	var ue usageError
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &ue):
		if ue != "" {
			errs.Print("cachebox: ", ue)
		}
		return 2
	}
	errs.Print("cachebox: ", err)
	return 1
}

// cli is one invocation. Its stdout is sticky, so commands print
// without checking every line and run reports a write error once.
type cli struct {
	*sticky.Writer
	stderr io.Writer
}

// flags returns a flag set reporting to the invocation's stderr.
func (c *cli) flags(name string) *flag.FlagSet {
	fs := flag.NewFlagSet("cachebox "+name, flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	return fs
}

// parse parses args into fs; the flag package reports a bad flag.
func parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return usageError("")
	}
	return err
}

// suiteFlags adds -ops and -suite-scale to fs and returns a function
// that builds every benchmark at their values.
func suiteFlags(fs *flag.FlagSet) func() []workload.Benchmark {
	ops := fs.Int("ops", 120000, "accesses per benchmark")
	scale := fs.Float64("suite-scale", 0.25, "problem-size scale for the ligra/poly suites")
	return func() []workload.Benchmark {
		return cachebox.FlattenSuites(cachebox.AllSuites(20, 2, *ops, *scale))
	}
}

// parseCaches parses a comma-separated list of "64set-12way" geometries.
func parseCaches(spec string) ([]cachesim.Config, error) {
	var cfgs []cachesim.Config
	for _, s := range strings.Split(spec, ",") {
		cfg, err := cachesim.ParseConfig(strings.TrimSpace(s))
		if err != nil {
			return nil, err
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs, nil
}

// benchOrTrace loads the -trace file or else the -bench benchmark.
func benchOrTrace(path, name string, benches func() []workload.Benchmark) (*trace.Trace, error) {
	switch {
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		//lint:ignore unchecked-error read-only file; a Close failure cannot lose data
		defer f.Close()
		return trace.ReadBinary(f)
	case name != "":
		b, err := workload.ByName(benches(), name)
		if err != nil {
			return nil, err
		}
		return b.Trace(), nil
	}
	return nil, usageError("need -bench or -trace")
}

// traceToFile installs a span collector when path is non-empty and
// returns a flush function for the caller to defer: it writes the
// Chrome trace-event file (viewable in chrome://tracing or Perfetto)
// and surfaces the write error if the command itself succeeded.
func (c *cli) traceToFile(path string, err *error) func() {
	if path == "" {
		return func() {}
	}
	col := obs.NewCollector(obs.Options{Trace: true})
	obs.Install(col)
	return func() {
		obs.Install(nil)
		if werr := col.WriteFile(path); werr != nil {
			if *err == nil {
				*err = werr
			}
			return
		}
		c.Printf("wrote %d trace events to %s\n", col.EventCount(), path)
	}
}

func (c *cli) list(args []string) error {
	fs := c.flags("list")
	benches := suiteFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	for _, b := range benches() {
		c.Printf("%-36s suite=%-10s group=%s\n", b.Name, b.Suite, b.Group)
	}
	return nil
}

func (c *cli) trace(args []string) error {
	fs := c.flags("trace")
	name := fs.String("bench", "", "benchmark name (see: cachebox list)")
	out := fs.String("o", "", "output file (default <bench>.cbxt)")
	benches := suiteFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	b, err := workload.ByName(benches(), *name)
	if err != nil {
		return err
	}
	tr := b.Trace()
	path := *out
	if path == "" {
		path = strings.ReplaceAll(b.Name, "/", "_") + ".cbxt"
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	//lint:ignore unchecked-error cleanup for early returns; the success path checks the explicit Close below
	defer f.Close()
	if err := trace.WriteBinary(f, tr); err != nil {
		return err
	}
	c.Printf("wrote %s: %s\n", path, trace.Summarize(tr, 64))
	return f.Close()
}

func (c *cli) simulate(args []string) error {
	fs := c.flags("simulate")
	name := fs.String("bench", "", "benchmark name")
	traceFile := fs.String("trace", "", "binary trace file (alternative to -bench)")
	cfgStr := fs.String("cache", "64set-12way", "cache geometry")
	levels := fs.String("hierarchy", "", "comma-separated level list, e.g. 64set-12way,1024set-8way,2048set-16way")
	policy := fs.String("policy", "lru", "replacement policy: lru, fifo, random, tree-plru, srrip, drrip")
	prefetch := fs.String("prefetch", "", "prefetcher: '', next-line, stride")
	benches := suiteFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	tr, err := benchOrTrace(*traceFile, *name, benches)
	if err != nil {
		return err
	}
	pol, ok := cachesim.ParsePolicy(*policy)
	if !ok {
		return fmt.Errorf("unknown policy %q", *policy)
	}
	if *levels != "" {
		cfgs, err := parseCaches(*levels)
		if err != nil {
			return err
		}
		for i := range cfgs {
			cfgs[i].Policy = pol
		}
		h, err := cachesim.NewHierarchy(cfgs...)
		if err != nil {
			return err
		}
		for i, lt := range cachesim.RunHierarchy(h, tr) {
			c.Printf("L%d %-18s accesses=%-9d hits=%-9d misses=%-9d hit-rate=%.4f\n",
				i+1, lt.Config, lt.Stats.Accesses, lt.Stats.Hits, lt.Stats.Misses, lt.HitRate())
		}
		return nil
	}
	cfg, err := cachesim.ParseConfig(*cfgStr)
	if err != nil {
		return err
	}
	cfg.Policy = pol
	sim := cachesim.New(cfg)
	prefetchers := map[string]cachesim.Prefetcher{
		"": nil, "next-line": &cachesim.NextLinePrefetcher{}, "stride": &cachesim.StridePrefetcher{},
	}
	if sim.Prefetcher, ok = prefetchers[*prefetch]; !ok {
		return fmt.Errorf("unknown prefetcher %q", *prefetch)
	}
	lt := cachesim.RunTrace(sim, tr)
	s := lt.Stats
	c.Printf("%s policy=%s accesses=%d hits=%d misses=%d hit-rate=%.4f writebacks=%d",
		cfg, pol, s.Accesses, s.Hits, s.Misses, lt.HitRate(), s.Writebacks)
	if sim.Prefetcher != nil {
		c.Printf(" prefetch-fills=%d prefetch-hits=%d", s.PrefetchFill, s.PrefetchHit)
	}
	c.Printf("\n")
	return nil
}

func (c *cli) heatmap(args []string) error {
	fs := c.flags("heatmap")
	name := fs.String("bench", "", "benchmark name")
	cfgStr := fs.String("cache", "64set-12way", "cache geometry")
	outDir := fs.String("o", "heatmaps", "output directory")
	count := fs.Int("n", 2, "number of heatmap pairs to render")
	benches := suiteFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	b, err := workload.ByName(benches(), *name)
	if err != nil {
		return err
	}
	cfg, err := cachesim.ParseConfig(*cfgStr)
	if err != nil {
		return err
	}
	p := cachebox.NewPipeline()
	pairs, hr, err := p.BenchPairs(b, cfg)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	for i := 0; i < *count && i < len(pairs); i++ {
		ap := filepath.Join(*outDir, fmt.Sprintf("access-%d.png", i))
		mp := filepath.Join(*outDir, fmt.Sprintf("miss-%d.png", i))
		if err := cachebox.WriteHeatmapPNG(ap, pairs[i].Access); err != nil {
			return err
		}
		if err := cachebox.WriteHeatmapPNG(mp, pairs[i].Miss); err != nil {
			return err
		}
		c.Printf("wrote %s and %s\n", ap, mp)
	}
	c.Printf("%s on %s: true hit rate %.4f, %d pairs total\n", b.Name, cfg, hr, len(pairs))
	return nil
}

func (c *cli) phases(args []string) error {
	fs := c.flags("phases")
	name := fs.String("bench", "", "benchmark name")
	traceFile := fs.String("trace", "", "binary trace file (alternative to -bench)")
	interval := fs.Int("interval", 10000, "accesses per interval")
	k := fs.Int("k", 4, "number of phases")
	cfgStr := fs.String("cache", "64set-12way", "cache geometry for the rate comparison")
	benches := suiteFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	tr, err := benchOrTrace(*traceFile, *name, benches)
	if err != nil {
		return err
	}
	scfg := simpoint.DefaultConfig()
	scfg.IntervalLen = *interval
	scfg.K = *k
	ph, err := simpoint.Analyze(tr, scfg)
	if err != nil {
		return err
	}
	c.Printf("%s: %d intervals, %d phases\n", tr.Name, len(ph.Intervals), len(ph.Representatives))
	for i, rep := range ph.Representatives {
		iv := ph.Intervals[rep]
		c.Printf("  phase %d: weight %.2f, representative interval %d (accesses [%d,%d))\n",
			i, ph.Weights[i], iv.Index, iv.Lo, iv.Hi)
	}
	ccfg, err := cachesim.ParseConfig(*cfgStr)
	if err != nil {
		return err
	}
	full := cachesim.RunTrace(cachesim.New(ccfg), tr).Stats.MissRate()
	est := ph.EstimateRate(tr, func(sub *trace.Trace) float64 {
		return cachesim.RunTrace(cachesim.New(ccfg), sub).Stats.MissRate()
	})
	c.Printf("full-trace miss rate %.4f, simpoint estimate %.4f (|diff| %.2f%%)\n",
		full, est, 100*math.Abs(full-est))
	return nil
}
