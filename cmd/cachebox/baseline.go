package main

import (
	"flag"
	"math"

	"cachebox/internal/baseline"
	"cachebox/internal/cachesim"
	"cachebox/internal/trace"
)

// baseline runs `cachebox baseline <stats|reuse|predict> -trace FILE`,
// the workbench of everything except the GAN: trace statistics,
// reuse-distance histograms and the baseline miss-rate predictors
// against the ground-truth simulator.
func (c *cli) baseline(args []string) error {
	verbs := map[string]func(*flag.FlagSet) func(*trace.Trace) error{
		"stats": c.baselineStats, "reuse": c.baselineReuse, "predict": c.baselinePredict,
	}
	if len(args) == 0 || verbs[args[0]] == nil {
		return usageError("usage: cachebox baseline <stats|reuse|predict> -trace FILE [flags]")
	}
	fs := c.flags("baseline " + args[0])
	path := fs.String("trace", "", "binary trace file")
	do := verbs[args[0]](fs)
	if err := parse(fs, args[1:]); err != nil {
		return err
	}
	if *path == "" {
		return usageError("baseline " + args[0] + ": need -trace")
	}
	tr, err := benchOrTrace(*path, "", nil)
	if err != nil {
		return err
	}
	return do(tr)
}

func (c *cli) baselineStats(fs *flag.FlagSet) func(*trace.Trace) error {
	block := fs.Uint64("block", 64, "block size for footprint accounting")
	return func(tr *trace.Trace) error {
		st := trace.Summarize(tr, *block)
		c.Printf("%s: %s\ntop strides (bytes: occurrences):\n", tr.Name, st)
		for _, sc := range st.TopStrides {
			c.Printf("  %8d: %d\n", sc.Stride, sc.Count)
		}
		return nil
	}
}

func (c *cli) baselineReuse(fs *flag.FlagSet) func(*trace.Trace) error {
	maxTracked := fs.Int("max", 4096, "maximum tracked stack distance")
	return func(tr *trace.Trace) error {
		h := baseline.NewHistogram(baseline.StackDistances(tr, 6), *maxTracked)
		c.Printf("%s: %d accesses, %d cold, %d beyond %d\n", tr.Name, h.Total, h.Cold, h.Beyond, *maxTracked)
		// Log-spaced buckets [0,1), [1,2), [2,4), ...
		for lo, hi := 0, 1; lo < *maxTracked; lo, hi = hi, 2*hi {
			hi = min(hi, *maxTracked)
			n := 0
			for d := lo; d < hi; d++ {
				n += h.Counts[d]
			}
			if n > 0 {
				c.Printf("  dist [%5d,%5d): %d\n", lo, hi, n)
			}
		}
		return nil
	}
}

func (c *cli) baselinePredict(fs *flag.FlagSet) func(*trace.Trace) error {
	cfgStr := fs.String("cache", "64set-12way", "cache geometry")
	return func(tr *trace.Trace) error {
		cfg, err := cachesim.ParseConfig(*cfgStr)
		if err != nil {
			return err
		}
		truth := cachesim.RunTrace(cachesim.New(cfg), tr).Stats.MissRate()
		c.Printf("%s on %s: true miss rate %.4f\n", tr.Name, cfg, truth)
		for _, p := range []baseline.Predictor{
			&baseline.HRD{},
			&baseline.STM{Seed: 1},
			&baseline.Tabular{Variant: baseline.TabBase, Seed: 1},
			&baseline.Tabular{Variant: baseline.TabRD, Seed: 1},
			&baseline.Tabular{Variant: baseline.TabIC, Seed: 1},
		} {
			got := p.PredictMissRate(tr, cfg)
			c.Printf("  %-10s predicted %.4f (|diff| %.2f%%)\n", p.Name(), got, 100*math.Abs(got-truth))
		}
		return nil
	}
}
