package cachebox

// This file holds one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md §3) plus ablation benches for the design
// choices DESIGN.md §4 calls out. The benches exercise the exact code
// paths the experiment harness uses, at a reduced (tiny) scale so they
// run in seconds; cmd/cbx-experiments regenerates the full tables.

import (
	"fmt"
	"sync"
	"testing"

	"cachebox/internal/baseline"
	"cachebox/internal/cachesim"
	"cachebox/internal/core"
	"cachebox/internal/heatmap"
	"cachebox/internal/metrics"
)

// fixture is the shared tiny-scale setup: suites, a trained
// conditioned model, and prebuilt heatmaps.
type fixture struct {
	pipe    Pipeline
	modelC  *core.Model // conditioned (2 cache params)
	train   []Benchmark
	test    []Benchmark
	access  []*Heatmap
	params  []float32
	cacheL1 CacheConfig
}

var (
	fixOnce sync.Once
	fix     *fixture
)

func getFixture(b *testing.B) *fixture {
	b.Helper()
	fixOnce.Do(func() {
		p := NewPipeline()
		p.Heatmap.Height, p.Heatmap.Width = 16, 16
		p.Heatmap.WindowInstr = 150
		p.MaxPairsPerBench = 6
		suite := SpecLike(6, 1, 20000)
		train, test := SplitBenchmarks(suite.Benchmarks, 0.8, 42)
		cfg := CacheConfig{Sets: 64, Ways: 12}
		ds, err := p.Dataset(train, []CacheConfig{cfg}, 0)
		if err != nil {
			panic(err)
		}
		mc := DefaultModelConfig()
		mc.ImageSize = 16
		mc.NGF, mc.NDF = 4, 4
		m, err := NewModel(mc)
		if err != nil {
			panic(err)
		}
		if _, err := m.Train(ds, TrainConfig{Epochs: 2, BatchSize: 4, Seed: 1}); err != nil {
			panic(err)
		}
		var access []*Heatmap
		for _, s := range ds {
			access = append(access, s.Access)
		}
		fix = &fixture{
			pipe: p, modelC: m, train: train, test: test,
			access: access, params: CacheParams(cfg), cacheL1: cfg,
		}
	})
	return fix
}

// BenchmarkHeatmapGeneration regenerates Figure 3/4's artifact: trace
// → simulate → aligned access/miss heatmap pairs.
func BenchmarkHeatmapGeneration(b *testing.B) {
	suite := PolyLike(20000, 0.2)
	bench := suite.Benchmarks[0]
	tr := bench.Trace()
	cfg := heatmap.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lt := cachesim.RunTrace(cachesim.New(cachesim.Config{Sets: 64, Ways: 12}), tr)
		pairs, err := heatmap.BuildPair(cfg, lt.Accesses, lt.Misses)
		if err != nil {
			b.Fatal(err)
		}
		if len(pairs) == 0 {
			b.Fatal("no pairs")
		}
	}
}

// BenchmarkFig7RQ1UnseenApps measures the per-benchmark evaluation
// loop of Figure 7: predict an unseen benchmark's miss heatmaps and
// recover its hit rate. Alongside timing it reports the hit-rate MAE
// (in percentage points), so a perf win that costs accuracy is visible
// in the same output line.
func BenchmarkFig7RQ1UnseenApps(b *testing.B) {
	f := getFixture(b)
	bench := f.test[0]
	var mae float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, err := f.pipe.Evaluate(f.modelC, bench, f.cacheL1, 8)
		if err != nil {
			b.Fatal(err)
		}
		mae += ev.AbsPctDiff
	}
	b.ReportMetric(mae/float64(b.N), "hitrate-mae-pp")
}

// benchWidths picks the pool widths the parallel benches compare: the
// serial path against GOMAXPROCS, or against an 8-wide pool on a
// single-CPU host (where the interesting number is the pool's overhead,
// not a speedup).
func benchWidths() []int {
	if n := DefaultWorkers(); n > 1 {
		return []int{1, n}
	}
	return []int{1, 8}
}

// BenchmarkFig7Evaluation measures the full fig7-style test-set
// evaluation through EvaluateAll: simulation fans out across the pool,
// prediction stays serial. The hit-rate MAE over the test set rides
// along as a metric.
func BenchmarkFig7Evaluation(b *testing.B) {
	f := getFixture(b)
	for _, j := range benchWidths() {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			p := f.pipe
			p.Workers = j
			var mae float64
			var rows int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, res := range p.EvaluateAll(f.modelC, f.test, f.cacheL1, 8) {
					if res.Err != nil {
						b.Fatal(res.Err)
					}
					mae += res.Eval.AbsPctDiff
					rows++
				}
			}
			b.ReportMetric(mae/float64(rows), "hitrate-mae-pp")
		})
	}
}

// BenchmarkFig8RQ2MultiConfig sweeps the four trained configurations
// with one conditioned model (Figure 8).
func BenchmarkFig8RQ2MultiConfig(b *testing.B) {
	f := getFixture(b)
	cfgs := []CacheConfig{{Sets: 64, Ways: 12}, {Sets: 128, Ways: 12}, {Sets: 128, Ways: 6}, {Sets: 128, Ways: 3}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			f.modelC.Predict(f.access[:4], CacheParams(cfg), 4)
		}
	}
}

// BenchmarkFig9RQ3UnseenConfig predicts under configurations absent
// from training (Figure 9) — same cost profile, different parameters.
func BenchmarkFig9RQ3UnseenConfig(b *testing.B) {
	f := getFixture(b)
	cfgs := []CacheConfig{{Sets: 256, Ways: 6}, {Sets: 256, Ways: 12}, {Sets: 32, Ways: 12}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			f.modelC.Predict(f.access[:4], CacheParams(cfg), 4)
		}
	}
}

// BenchmarkFig10RQ4Hierarchy measures the three-level simulation and
// per-level heatmap pipeline behind Figure 10.
func BenchmarkFig10RQ4Hierarchy(b *testing.B) {
	suite := SpecLike(2, 1, 20000)
	tr := suite.Benchmarks[0].Trace()
	cfgs := []CacheConfig{{Sets: 64, Ways: 12}, {Sets: 1024, Ways: 8}, {Sets: 2048, Ways: 16}}
	hm := heatmap.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := cachesim.NewHierarchy(cfgs...)
		if err != nil {
			b.Fatal(err)
		}
		for _, lt := range cachesim.RunHierarchy(h, tr) {
			if _, err := heatmap.BuildPair(hm, lt.Accesses, lt.Misses); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig12RQ6Response measures the scatter-point computation of
// Figure 12 (true vs predicted hit rate for one benchmark/config).
func BenchmarkFig12RQ6Response(b *testing.B) {
	f := getFixture(b)
	bench := f.test[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, err := f.pipe.Evaluate(f.modelC, bench, f.cacheL1, 8)
		if err != nil {
			b.Fatal(err)
		}
		_ = ev.PredHit - ev.TrueHit
	}
}

// BenchmarkFig13RQ7Prefetcher measures the prefetcher-modelling path
// of Figure 13: record next-line prefetches, build paired heatmaps,
// and score MSE/SSIM.
func BenchmarkFig13RQ7Prefetcher(b *testing.B) {
	suite := SpecLike(2, 1, 20000)
	tr := suite.Benchmarks[0].Trace()
	hm := heatmap.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cachesim.New(cachesim.Config{Sets: 64, Ways: 12})
		rec := &cachesim.RecordingPrefetcher{Inner: &cachesim.NextLinePrefetcher{}}
		c.Prefetcher = rec
		cachesim.RunTrace(c, tr)
		pf := heatmap.PrefetchTrace("pf", rec.Records, 6)
		am, err := heatmap.Build(hm, tr, tr.Accesses[0].IC)
		if err != nil {
			b.Fatal(err)
		}
		pm, err := heatmap.Build(hm, pf, tr.Accesses[0].IC)
		if err != nil {
			b.Fatal(err)
		}
		if len(am) > 0 && len(pm) > 0 {
			if _, err := metrics.SSIM(am[0], pm[0], 0); err != nil {
				b.Fatal(err)
			}
			if _, err := metrics.MSE(am[0], pm[0]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig14HitRateHistogram measures the dataset analysis of
// Figure 14: simulate the suite and histogram true hit rates.
func BenchmarkFig14HitRateHistogram(b *testing.B) {
	suite := SpecLike(4, 1, 10000)
	traces := make([]*Trace, len(suite.Benchmarks))
	for i, bench := range suite.Benchmarks {
		traces[i] = bench.Trace()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rates []float64
		for _, tr := range traces {
			lt := cachesim.RunTrace(cachesim.New(cachesim.Config{Sets: 64, Ways: 12}), tr)
			rates = append(rates, lt.HitRate())
		}
		metrics.RateHistogram(rates, 20)
	}
}

// BenchmarkTable1Baselines measures the statistical predictors of
// Table 1 (HRD, STM, tabular synthesiser variants) on one trace.
func BenchmarkTable1Baselines(b *testing.B) {
	suite := SpecLike(2, 1, 20000)
	tr := suite.Benchmarks[0].Trace()
	cfg := cachesim.Config{Sets: 64, Ways: 12}
	preds := []baseline.Predictor{
		&baseline.HRD{},
		&baseline.STM{Seed: 1},
		&baseline.Tabular{Variant: baseline.TabBase, Seed: 1},
		&baseline.Tabular{Variant: baseline.TabRD, Seed: 1},
		&baseline.Tabular{Variant: baseline.TabIC, Seed: 1},
	}
	for _, p := range preds {
		b.Run(p.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.PredictMissRate(tr, cfg)
			}
		})
	}
}

// BenchmarkAblationOverlap sweeps the heatmap overlap fraction
// (DESIGN.md §4.1; the paper fixes 30%).
func BenchmarkAblationOverlap(b *testing.B) {
	suite := SpecLike(2, 1, 20000)
	tr := suite.Benchmarks[0].Trace()
	lt := cachesim.RunTrace(cachesim.New(cachesim.Config{Sets: 64, Ways: 12}), tr)
	for _, ov := range []float64{0, 0.15, 0.30, 0.50} {
		b.Run(fmt.Sprintf("overlap=%.0f%%", ov*100), func(b *testing.B) {
			cfg := heatmap.DefaultConfig()
			cfg.Overlap = ov
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pairs, err := heatmap.BuildPair(cfg, lt.Accesses, lt.Misses)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(pairs)), "pairs")
			}
		})
	}
}

// BenchmarkAblationModulo sweeps the heatmap height (the address
// modulo; DESIGN.md §4.2; the paper picks 512).
func BenchmarkAblationModulo(b *testing.B) {
	suite := SpecLike(2, 1, 20000)
	tr := suite.Benchmarks[0].Trace()
	lt := cachesim.RunTrace(cachesim.New(cachesim.Config{Sets: 64, Ways: 12}), tr)
	for _, h := range []int{16, 32, 64, 128} {
		b.Run(fmt.Sprintf("modulo=%d", h), func(b *testing.B) {
			cfg := heatmap.DefaultConfig()
			cfg.Height = h
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := heatmap.BuildPair(cfg, lt.Accesses, lt.Misses); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationLambda measures a training step at different L1
// weights (DESIGN.md §4.4; the paper uses λ=150).
func BenchmarkAblationLambda(b *testing.B) {
	f := getFixture(b)
	ds, err := f.pipe.Dataset(f.train[:2], []CacheConfig{f.cacheL1}, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, lambda := range []float64{0, 50, 150, 300} {
		b.Run(fmt.Sprintf("lambda=%.0f", lambda), func(b *testing.B) {
			mc := DefaultModelConfig()
			mc.ImageSize = 16
			mc.NGF, mc.NDF = 4, 4
			mc.Lambda = lambda
			m, err := NewModel(mc)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Train(ds[:4], TrainConfig{Epochs: 1, BatchSize: 4, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
