package stream

import (
	"context"
	"errors"
	"fmt"

	"cachebox/internal/cachesim"
	"cachebox/internal/core"
	"cachebox/internal/heatmap"
	"cachebox/internal/metrics"
	"cachebox/internal/obs"
	"cachebox/internal/par"
	"cachebox/internal/sampling"
	"cachebox/internal/store"
	"cachebox/internal/workload"
)

// Truth is the ground-truth source of the public Pipeline and the
// experiment harness: benchmark × cache configuration in, capped
// heatmap pairs, whole-trace hit rates and training samples out. Every
// single-level method simulates through Run, so there is one trace →
// simulate → window implementation outside the reference the tests
// compare it to; Hierarchy is the one multi-level variant.
type Truth struct {
	// Store, when non-nil, memoises Pairs under store.PairsKey and
	// makes Source serve a sharded dataset instead of an in-memory one.
	Store *store.Store
	// Heatmap is the window geometry.
	Heatmap heatmap.Config
	// MaxWindows caps the pairs kept per benchmark × config; 0 keeps all.
	MaxWindows int
	// SplitSeed tags cached pairs with the train/test split they feed.
	SplitSeed int64
	// Workers bounds the fan-out over benchmarks: 0 means GOMAXPROCS,
	// 1 is serial. Results are committed in input order at any width.
	Workers int
	// Logf, when non-nil, receives dataset summaries and the one
	// non-fatal failure of this path, a cache fill that did not land.
	// Pool tasks call it concurrently.
	Logf func(format string, args ...any)
}

// errEmptyDataset is what Samples and Source return when the hit-rate
// filter leaves nothing to train on.
var errEmptyDataset = errors.New("stream: dataset is empty (all benchmarks filtered?)")

func (t Truth) logf(format string, args ...any) {
	if t.Logf != nil {
		t.Logf(format, args...)
	}
}

// Pairs returns bench's capped heatmap pairs under cfg plus the exact
// whole-trace hit rate. With a store attached a warm call returns the
// cached artifact without simulating; a failed cache fill is logged
// and otherwise ignored, since it only costs a later re-simulation.
func (t Truth) Pairs(ctx context.Context, bench workload.Benchmark, cfg cachesim.Config) ([]heatmap.Pair, float64, error) {
	var key store.Key
	if t.Store != nil {
		key = store.PairsKey(bench, cfg, t.Heatmap, t.MaxWindows, t.SplitSeed)
		if art, err := t.Store.LoadPairs(key); err == nil {
			return art.Pairs, art.HitRate, nil
		}
	}
	var pairs []heatmap.Pair
	res, err := Run(ctx, bench, cfg, RunConfig{Heatmap: t.Heatmap, MaxWindows: t.MaxWindows},
		func(w Window) error {
			pairs = append(pairs, w.Pair)
			return nil
		})
	if err != nil {
		return nil, 0, fmt.Errorf("stream: %s: %w", bench.Name, err)
	}
	if t.Store != nil {
		if err := t.Store.SavePairs(key, &store.PairsArtifact{Pairs: pairs, HitRate: res.HitRate}); err != nil {
			t.logf("[store] warning: could not cache pairs for %s: %v\n", bench.Name, err)
		}
	}
	return pairs, res.HitRate, nil
}

// BenchTruth is one benchmark × config ground truth. A per-benchmark
// failure (a trace too short for the heatmap geometry) is carried in
// Err, so one short trace never cancels a fan-out.
type BenchTruth struct {
	Pairs   []heatmap.Pair
	HitRate float64
	Err     error
}

type truthItem struct {
	cfg   cachesim.Config
	bench workload.Benchmark
}

// truths runs Pairs over items on the worker pool, in input order.
func (t Truth) truths(ctx context.Context, items []truthItem) []BenchTruth {
	out, err := par.Map(ctx, t.Workers, items,
		func(ctx context.Context, _ int, it truthItem) (BenchTruth, error) {
			pairs, hr, perr := t.Pairs(ctx, it.bench, it.cfg)
			return BenchTruth{Pairs: pairs, HitRate: hr, Err: perr}, nil
		})
	if err != nil {
		// Only a panicking task can get here; surface it on every row
		// so callers fail loudly instead of indexing a nil slice.
		out = make([]BenchTruth, len(items))
		for i := range out {
			out[i].Err = err
		}
	}
	return out
}

// Truths returns the ground truth of every benchmark under one cache
// configuration, in benchmark order.
func (t Truth) Truths(ctx context.Context, benches []workload.Benchmark, cfg cachesim.Config) []BenchTruth {
	items := make([]truthItem, len(benches))
	for i, b := range benches {
		items[i] = truthItem{cfg: cfg, bench: b}
	}
	return t.truths(ctx, items)
}

// Samples assembles CB-GAN training samples over cfgs × benches in
// (cfg, bench) order — the order Build's manifest uses — tagging each
// with its cache parameters. Benchmarks whose hit rate is below
// minHitRate are left out (the paper's §6.1 "high data regime" rule).
func (t Truth) Samples(ctx context.Context, benches []workload.Benchmark, cfgs []cachesim.Config, minHitRate float64) ([]core.Sample, error) {
	var items []truthItem
	for _, cfg := range cfgs {
		for _, b := range benches {
			items = append(items, truthItem{cfg: cfg, bench: b})
		}
	}
	var out []core.Sample
	for i, bt := range t.truths(ctx, items) {
		if bt.Err != nil {
			return nil, bt.Err
		}
		if bt.HitRate < minHitRate {
			continue
		}
		params := core.CacheParams(items[i].cfg)
		for _, pr := range bt.Pairs {
			out = append(out, core.Sample{Access: pr.Access, Miss: pr.Miss, Params: params, Bench: items[i].bench.Name})
		}
	}
	if len(out) == 0 {
		return nil, errEmptyDataset
	}
	return out, nil
}

// Source returns the training dataset of cfgs × benches for
// Model.TrainSource. With a store attached it is a sharded dataset
// (Build + OpenDataset) fetched per batch and never fully resident,
// and its manifest is returned; without one it is Samples behind
// core.SliceSource and the manifest is nil. Both serve the same sample
// sequence, so the trained model does not depend on which one ran. A
// non-nil smp thins the dataset to cluster representatives (see
// BuildConfig.Sampling), which needs the store.
func (t Truth) Source(ctx context.Context, name string, benches []workload.Benchmark, cfgs []cachesim.Config, minHitRate float64, smp *sampling.Config) (core.SampleSource, *Manifest, error) {
	if t.Store == nil {
		if smp != nil {
			return nil, nil, fmt.Errorf("stream: a sampled dataset requires a store")
		}
		samples, err := t.Samples(ctx, benches, cfgs, minHitRate)
		if err != nil {
			return nil, nil, err
		}
		return core.SliceSource(samples), nil, nil
	}
	man, _, err := Build(ctx, t.Store, benches, cfgs, BuildConfig{
		Name:       name,
		Heatmap:    t.Heatmap,
		MaxWindows: t.MaxWindows,
		MinHitRate: minHitRate,
		Workers:    t.Workers,
		Sampling:   smp,
	})
	if err != nil {
		return nil, nil, err
	}
	ds, err := OpenDataset(t.Store, man)
	if err != nil {
		return nil, nil, err
	}
	if ds.Len() == 0 {
		return nil, nil, errEmptyDataset
	}
	t.logf("[%s] %s\n", name, man.Summary())
	return ds, man, nil
}

// LevelTruth is one benchmark's ground truth over a cache hierarchy:
// level i's access stream is level i-1's miss stream (paper RQ4).
type LevelTruth struct {
	// Pairs[i] and Rates[i] are level i's capped pairs and hit rate.
	Pairs [][]heatmap.Pair
	Rates []float64
	// Errs[i] is level i's windowing failure (a filtered stream too
	// short for the geometry); the other levels stay usable.
	Errs []error
	// Err is a failure of the whole benchmark.
	Err error
}

// Hierarchy simulates every benchmark over the cfgs hierarchy on the
// worker pool, in benchmark order. A level's windows depend on the
// level above, so this is one materialised cachesim.RunHierarchy pass
// per benchmark rather than a fused stream.
func (t Truth) Hierarchy(ctx context.Context, benches []workload.Benchmark, cfgs []cachesim.Config) []LevelTruth {
	out, err := par.Map(ctx, t.Workers, benches,
		func(ctx context.Context, _ int, b workload.Benchmark) (LevelTruth, error) {
			h, err := cachesim.NewHierarchy(cfgs...)
			if err != nil {
				return LevelTruth{Err: err}, nil
			}
			metrics.SimRuns.Inc()
			_, span := obs.Start(ctx, "sim.run")
			span.Tag("bench", b.Name)
			span.TagInt("levels", len(cfgs))
			lts := cachesim.RunHierarchy(h, b.Trace())
			span.End()
			lt := LevelTruth{
				Pairs: make([][]heatmap.Pair, len(lts)),
				Rates: make([]float64, len(lts)),
				Errs:  make([]error, len(lts)),
			}
			for i, l := range lts {
				lt.Rates[i] = l.HitRate()
				pairs, err := heatmap.BuildPair(t.Heatmap, l.Accesses, l.Misses)
				if err != nil {
					lt.Errs[i] = fmt.Errorf("stream: %s L%d: %w", b.Name, i+1, err)
					continue
				}
				if t.MaxWindows > 0 && len(pairs) > t.MaxWindows {
					pairs = pairs[:t.MaxWindows]
				}
				lt.Pairs[i] = pairs
			}
			return lt, nil
		})
	if err != nil {
		// Only a panicking task can get here; surface it on every row.
		out = make([]LevelTruth, len(benches))
		for i := range out {
			out[i].Err = err
		}
	}
	return out
}
