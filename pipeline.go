package cachebox

import (
	"context"
	"fmt"

	"cachebox/internal/cachesim"
	"cachebox/internal/core"
	"cachebox/internal/heatmap"
	"cachebox/internal/metrics"
	"cachebox/internal/obs"
	"cachebox/internal/par"
	"cachebox/internal/stream"
	"cachebox/internal/workload"
)

// Pipeline wires the end-to-end CacheBox workflow: generate a
// benchmark's trace, simulate the cache (hierarchy), build aligned
// access/miss heatmap pairs, and assemble CB-GAN training samples or
// evaluation sets.
type Pipeline struct {
	// Heatmap is the heatmap geometry used throughout.
	Heatmap HeatmapConfig
	// MaxPairsPerBench caps the heatmap pairs taken per benchmark per
	// cache configuration (0 = unlimited).
	MaxPairsPerBench int
	// Store, when non-nil, memoises BenchPairs simulation results in a
	// content-addressed artifact store, so repeat runs skip the
	// simulator.
	Store *Store
	// SplitSeed tags cached artifacts with the train/test split they
	// feed (runs with different splits never share entries).
	SplitSeed int64
	// Workers bounds the parallelism of ground-truth simulation in
	// Dataset, EvaluateAll and TrueHitRates: 0 = runtime.GOMAXPROCS(0),
	// 1 = the serial path. Results are committed in deterministic input
	// order, so output is identical whatever the width.
	Workers int
}

// NewPipeline returns a Pipeline with the default scaled-down heatmap
// geometry.
func NewPipeline() Pipeline {
	return Pipeline{Heatmap: heatmap.DefaultConfig()}
}

// truth is the ground-truth source behind every method that builds
// heatmap pairs.
func (p Pipeline) truth() stream.Truth {
	return stream.Truth{
		Store:      p.Store,
		Heatmap:    p.Heatmap,
		MaxWindows: p.MaxPairsPerBench,
		SplitSeed:  p.SplitSeed,
		Workers:    p.Workers,
	}
}

// BenchPairs simulates bench against a single cache level and returns
// the aligned heatmap pairs plus the level's true hit rate.
func (p Pipeline) BenchPairs(bench Benchmark, cfg CacheConfig) ([]HeatmapPair, float64, error) {
	return p.truth().Pairs(context.Background(), bench, cfg)
}

// LevelPairs simulates bench against a full hierarchy and returns the
// heatmap pairs and true hit rate of each level. Level i's access
// stream is level i-1's miss stream, as in the paper's RQ4 setup.
func (p Pipeline) LevelPairs(bench Benchmark, cfgs []CacheConfig) ([][]HeatmapPair, []float64, error) {
	lt := p.truth().Hierarchy(context.Background(), []Benchmark{bench}, cfgs)[0]
	if lt.Err != nil {
		return nil, nil, lt.Err
	}
	for _, err := range lt.Errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return lt.Pairs, lt.Rates, nil
}

// Dataset assembles CB-GAN training samples for every (benchmark,
// cache config) combination, tagging each sample with the cache
// parameters (paper RQ2: one model across configurations). Benchmarks
// whose true hit rate falls below minHitRate are excluded — the
// paper's §6.1 "high data regime" rule; pass 0 to keep everything.
// Simulation fans out across Workers; samples are committed in
// (cfg, bench) order, so the dataset is identical to a serial build.
func (p Pipeline) Dataset(benches []Benchmark, cfgs []CacheConfig, minHitRate float64) ([]Sample, error) {
	ctx, dsSpan := obs.Start(context.Background(), "pipeline.dataset")
	dsSpan.TagInt("items", len(benches)*len(cfgs))
	defer dsSpan.End()
	return p.truth().Samples(ctx, benches, cfgs, minHitRate)
}

// DatasetSource builds (or recalls from a warm store) a sharded
// streaming dataset and returns it as a lazily served SampleSource for
// Model.TrainSource, together with its manifest. The dataset is never
// fully materialised: windows stream through a bounded channel into
// content-addressed shards, and training fetches shards per batch. An
// exhaustive build serves the exact sample sequence Dataset returns
// (same order, images, params), so the trained model is byte-identical.
//
// A non-nil sampling config enables representative-interval sampling:
// per-window access signatures are clustered (no simulation), ground
// truth is simulated only for cluster representatives, and the served
// samples carry weights that make the thinned dataset train as a
// population estimate. Requires an attached Store.
func (p Pipeline) DatasetSource(name string, benches []Benchmark, cfgs []CacheConfig, minHitRate float64, smp *SamplingConfig) (SampleSource, *DatasetManifest, error) {
	if p.Store == nil {
		return nil, nil, fmt.Errorf("cachebox: DatasetSource requires a Store")
	}
	return p.truth().Source(context.Background(), name, benches, cfgs, minHitRate, smp)
}

// Eval holds one benchmark's evaluation under one cache configuration.
type Eval struct {
	Bench      string
	Config     CacheConfig
	TrueHit    float64
	PredHit    float64
	AbsPctDiff float64
	Pairs      int
}

// Evaluate predicts bench's miss heatmaps with the model and compares
// the implied hit rate against the simulator's truth (paper §4.4).
func (p Pipeline) Evaluate(m *Model, bench Benchmark, cfg CacheConfig, batchSize int) (Eval, error) {
	pairs, _, err := p.BenchPairs(bench, cfg)
	if err != nil {
		return Eval{}, err
	}
	return p.score(m, bench, cfg, pairs, batchSize)
}

// EvalResult pairs one benchmark's evaluation with its error, so a
// fan-out over many benchmarks can skip individual failures (a trace
// too short for the heatmap geometry) without losing the rest.
type EvalResult struct {
	Eval Eval
	Err  error
}

// EvaluateAll evaluates many benchmarks under one configuration:
// ground-truth simulation fans out across Workers, model prediction
// stays serial (the generator's forward pass is not safe for
// concurrent use on one model), and results return in benchmark order
// regardless of scheduling.
func (p Pipeline) EvaluateAll(m *Model, benches []Benchmark, cfg CacheConfig, batchSize int) []EvalResult {
	ctx, evalSpan := obs.Start(context.Background(), "pipeline.evaluate_all")
	evalSpan.TagInt("benches", len(benches))
	defer evalSpan.End()
	out := make([]EvalResult, len(benches))
	for i, bt := range p.truth().Truths(ctx, benches, cfg) {
		ev, err := Eval{}, bt.Err
		if err == nil {
			ev, err = p.score(m, benches[i], cfg, bt.Pairs, batchSize)
		}
		if err != nil {
			ev.Bench, ev.Config = benches[i].Name, cfg
		}
		out[i] = EvalResult{Eval: ev, Err: err}
	}
	return out
}

// score is the serial scoring stage of Evaluate and EvaluateAll over
// pre-simulated pairs.
func (p Pipeline) score(m *Model, bench Benchmark, cfg CacheConfig, pairs []HeatmapPair, batchSize int) (Eval, error) {
	trueHR, predHR, err := m.Score(p.Heatmap, pairs, core.CacheParams(cfg), batchSize)
	if err != nil {
		return Eval{}, fmt.Errorf("cachebox: %s: %w", bench.Name, err)
	}
	return Eval{
		Bench:      bench.Name,
		Config:     cfg,
		TrueHit:    trueHR,
		PredHit:    predHR,
		AbsPctDiff: metrics.AbsPctDiff(trueHR, predHR),
		Pairs:      len(pairs),
	}, nil
}

// TrueHitRates simulates every benchmark once and returns its hit rate
// under cfg (the paper's Figure 14 dataset analysis). Simulation fans
// out across Workers.
func (p Pipeline) TrueHitRates(benches []Benchmark, cfg CacheConfig) map[string]float64 {
	ctx, hrSpan := obs.Start(context.Background(), "pipeline.true_hit_rates")
	hrSpan.TagInt("benches", len(benches))
	defer hrSpan.End()
	rates, err := par.Map(ctx, p.Workers, benches,
		func(ctx context.Context, _ int, b Benchmark) (float64, error) {
			metrics.SimRuns.Inc()
			_, simSpan := obs.Start(ctx, "sim.run")
			simSpan.Tag("bench", b.Name)
			lt := cachesim.RunTrace(cachesim.New(cfg), b.Trace())
			simSpan.End()
			return lt.HitRate(), nil
		})
	out := make(map[string]float64, len(benches))
	if err != nil {
		return out
	}
	for i, b := range benches {
		out[b.Name] = rates[i]
	}
	return out
}

// AllSuites builds the three suite families at the given per-benchmark
// access budget and size scale, mirroring the paper's SPEC + Ligra +
// Polybench dataset.
func AllSuites(specGroups, specPhases, ops int, sizeScale float64) []Suite {
	return []Suite{
		workload.SpecLike(specGroups, specPhases, ops),
		workload.LigraLike(ops, sizeScale),
		workload.PolyLike(ops, sizeScale),
	}
}

// FlattenSuites concatenates suites' benchmarks.
func FlattenSuites(suites []Suite) []Benchmark {
	var out []Benchmark
	for _, s := range suites {
		out = append(out, s.Benchmarks...)
	}
	return out
}
