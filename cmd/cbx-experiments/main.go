// Command cbx-experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	cbx-experiments [-scale tiny|small|full] [-artifacts DIR] [-run LIST]
//	                [-store DIR] [-no-store] [-split-seed N]
//	                [-config FILE] [-shards N]
//	                [-checkpoint-every N] [-resume] [-j N]
//	                [-trace FILE]
//
// -run selects a comma-separated subset of
// fig3,fig7,fig8,fig9,fig10,fig11,fig12,fig13,fig14,table1 (default:
// all). -trace writes the run's spans as a Chrome trace-event JSON file
// (open in chrome://tracing or Perfetto). Trained models are cached
// under the artifacts directory, so
// experiments sharing a model (fig8/fig9/fig11/fig12/table1) train it
// once. Simulation results and models are additionally memoised in a
// content-addressed artifact store (inspect it with cbx-store); a
// rerun against a warm store performs zero simulator invocations.
// Ground truth always comes from internal/stream, which simulates and
// windows a trace one heatmap window at a time; with the store on,
// training datasets are sharded store manifests fetched per batch
// (inspect them with cbx-dataset), with -no-store they are held in
// memory. Artifacts are byte-identical either way.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cachebox/internal/core"
	"cachebox/internal/harness"
	"cachebox/internal/metrics"
	"cachebox/internal/obs"
	"cachebox/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// printer keeps the first write error, so run checks output once
// instead of after every progress line.
type printer struct {
	w   io.Writer
	err error
}

func (p *printer) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

// run parses args, runs the selected experiments and returns the exit
// code: 0 success, 1 an experiment or an output write failed, 2 usage.
func run(args []string, stdout, stderr io.Writer) int {
	out, errs := &printer{w: stdout}, &printer{w: stderr}
	fs := flag.NewFlagSet("cbx-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scaleFlag := fs.String("scale", "small", "experiment scale: tiny, small or full")
	artifacts := fs.String("artifacts", "artifacts", "directory for cached models and rendered figures")
	runList := fs.String("run", "all", "comma-separated experiments to run (fig3,fig7,...,fig14,table1)")
	storeDir := fs.String("store", "", "artifact store directory (default: <artifacts>/store)")
	noStore := fs.Bool("no-store", false, "disable the artifact store (always re-simulate)")
	splitSeed := fs.Int64("split-seed", 42, "seed of the train/test benchmark split")
	configPath := fs.String("config", "", "train.json TrainConfig base for harness training (batch size and parallel sections; explicitly passed flags override)")
	shards := fs.Int("shards", 0, "data-parallel gradient shards per training batch (0/1 = serial; artifacts depend on -shards, never on -j)")
	checkpointEvery := fs.Int("checkpoint-every", 5, "write a training checkpoint every N epochs (0 disables)")
	resume := fs.Bool("resume", false, "resume interrupted training from existing checkpoints")
	workers := fs.Int("j", 0, "simulation worker-pool width (0 = GOMAXPROCS, 1 = serial); artifacts are byte-identical at any width")
	tracePath := fs.String("trace", "", "write a Chrome trace-event file of the run's spans to this path")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	scale, err := harness.ParseScale(*scaleFlag)
	if err != nil {
		errs.printf("%v\n", err)
		return 2
	}
	var collector *obs.Collector
	if *tracePath != "" {
		collector = obs.NewCollector(obs.Options{Trace: true})
		obs.Install(collector)
		defer obs.Install(nil)
	}
	r := harness.NewRunner(scale, *artifacts, stdout)
	r.SplitSeed = *splitSeed
	r.CheckpointEvery = *checkpointEvery
	r.Resume = *resume
	r.Workers = *workers
	// Flag precedence matches `cachebox train`: defaults < -config file
	// < explicitly set flags. The harness keeps epochs/seed/dataset
	// experiment-controlled; the config contributes the batch-size
	// override and parallelism sections.
	if *configPath != "" {
		tc, err := core.LoadTrainConfigFile(*configPath)
		if err != nil {
			errs.printf("%v\n", err)
			return 2
		}
		r.Train = tc
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["shards"] || r.Train.Parallel.Shards == 0 {
		r.Train.Parallel.Shards = *shards
	}
	if set["j"] || r.Train.Parallel.Workers == 0 {
		r.Train.Parallel.Workers = *workers
	}
	if !*noStore {
		dir := *storeDir
		if dir == "" {
			dir = filepath.Join(*artifacts, "store")
		}
		st, err := store.Open(dir)
		if err != nil {
			errs.printf("%v\n", err)
			return 2
		}
		r.Store = st
	}

	all := []string{"fig3", "fig14", "fig7", "fig8", "fig9", "fig12", "fig11", "fig10", "fig13", "table1", "ablation"}
	want := map[string]bool{}
	if *runList == "all" || *runList == "" {
		for _, e := range all {
			want[e] = true
		}
	} else {
		for _, e := range strings.Split(*runList, ",") {
			want[strings.TrimSpace(e)] = true
		}
	}

	steps := []struct {
		name string
		fn   func() error
	}{
		{"fig3", func() error { _, err := r.Fig3(); return err }},
		{"fig14", func() error { _, err := r.Fig14(); return err }},
		{"fig7", func() error { _, err := r.Fig7(); return err }},
		{"fig8", func() error { _, err := r.Fig8(); return err }},
		{"fig9", func() error { _, err := r.Fig9(); return err }},
		{"fig12", func() error { _, err := r.Fig12(); return err }},
		{"fig11", func() error { _, err := r.Fig11(); return err }},
		{"fig10", func() error { _, err := r.Fig10(); return err }},
		{"fig13", func() error { _, err := r.Fig13(); return err }},
		{"table1", func() error { _, err := r.Table1(); return err }},
		{"ablation", func() error { _, err := r.Ablations(); return err }},
	}
	failed := 0
	for _, s := range steps {
		if !want[s.name] {
			continue
		}
		out.printf("\n===== %s (scale=%s) =====\n", s.name, scale)
		t0 := time.Now()
		if err := s.fn(); err != nil {
			errs.printf("%s failed: %v\n", s.name, err)
			failed++
			continue
		}
		out.printf("===== %s done in %.1fs =====\n", s.name, time.Since(t0).Seconds())
	}
	out.printf("%s\n", metrics.RuntimeSummary())
	if collector != nil {
		if err := collector.WriteFile(*tracePath); err != nil {
			errs.printf("%v\n", err)
			return 1
		}
		out.printf("wrote %d trace events to %s\n", collector.EventCount(), *tracePath)
	}
	if failed > 0 || out.err != nil {
		return 1
	}
	return 0
}
