// Command cbx-experiments regenerates the paper's tables and figures.
//
// -run selects a comma-separated subset of
// fig3,fig7,fig8,fig9,fig10,fig11,fig12,fig13,fig14,table1 (default:
// all). -trace writes the run's spans as a Chrome trace-event JSON file
// (open in chrome://tracing or Perfetto). Trained models are cached
// under the artifacts directory, so experiments sharing a model
// (fig8/fig9/fig11/fig12/table1) train it once. Simulation results and models are additionally memoised in a
// content-addressed artifact store (inspect it with `cachebox store`);
// a rerun against a warm store performs zero simulator invocations.
// Ground truth always comes from internal/stream, which simulates and
// windows a trace one heatmap window at a time; with the store on,
// training datasets are sharded store manifests fetched per batch
// (inspect them with `cachebox dataset`), with -no-store they are held
// in memory. Artifacts are byte-identical either way.
package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cachebox/internal/core"
	"cachebox/internal/harness"
	"cachebox/internal/metrics"
	"cachebox/internal/obs"
	"cachebox/internal/sticky"
	"cachebox/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the selected experiments and returns the exit
// code: 0 success, 1 an experiment or an output write failed, 2 usage.
func run(args []string, stdout, stderr io.Writer) int {
	out, errs := sticky.New(stdout), sticky.New(stderr)
	fs := flag.NewFlagSet("cbx-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scaleFlag := fs.String("scale", "small", "experiment scale: tiny, small or full")
	artifacts := fs.String("artifacts", "artifacts", "directory for cached models and rendered figures")
	runList := fs.String("run", "all", "comma-separated experiments to run (fig3,fig7,...,fig14,table1)")
	storeDir := fs.String("store", "", "artifact store directory (default: <artifacts>/store)")
	noStore := fs.Bool("no-store", false, "disable the artifact store (always re-simulate)")
	splitSeed := fs.Int64("split-seed", 42, "seed of the train/test benchmark split")
	configPath := fs.String("config", "", "train.json TrainConfig base for harness training (batch size and parallel sections; explicitly passed flags override)")
	fs.Int("shards", 0, "data-parallel gradient shards per training batch (0/1 = serial; artifacts depend on -shards, never on -j)")
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
		errs.Printf("%v\n", err)
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
	// Flag precedence matches `cachebox train`. The harness keeps
	// epochs, seed and dataset experiment-controlled: it reads only the
	// batch size and the parallel section of the result.
	if r.Train, err = core.ResolveTrainConfig(*configPath, fs); err != nil {
		errs.Printf("%v\n", err)
		return 2
	}
	if !*noStore {
		dir := *storeDir
		if dir == "" {
			dir = filepath.Join(*artifacts, "store")
		}
		if r.Store, err = store.Open(dir); err != nil {
			errs.Printf("%v\n", err)
			return 2
		}
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*runList, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := *runList == "all" || *runList == ""

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
		if !all && !want[s.name] {
			continue
		}
		out.Printf("\n===== %s (scale=%s) =====\n", s.name, scale)
		t0 := time.Now()
		if err := s.fn(); err != nil {
			errs.Printf("%s failed: %v\n", s.name, err)
			failed++
			continue
		}
		out.Printf("===== %s done in %.1fs =====\n", s.name, time.Since(t0).Seconds())
	}
	out.Printf("%s\n", metrics.RuntimeSummary())
	if collector != nil {
		if err := collector.WriteFile(*tracePath); err != nil {
			errs.Printf("%v\n", err)
			return 1
		}
		out.Printf("wrote %d trace events to %s\n", collector.EventCount(), *tracePath)
	}
	if failed > 0 || out.Err() != nil {
		return 1
	}
	return 0
}
