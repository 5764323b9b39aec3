package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"cachebox/internal/cachesim"
	"cachebox/internal/core"
	"cachebox/internal/metrics"
	"cachebox/internal/par"
	"cachebox/internal/store"
	"cachebox/internal/stream"
	"cachebox/internal/workload"
)

// Hit-rate thresholds of the paper's §6.1 "high data regime" rule, per
// hierarchy level.
var levelThresholds = []float64{0.65, 0.40, 0.35}

// The paper's cache configurations.
var (
	// L1Default is the 64set-12way L1D used by RQ1/RQ4–RQ7.
	L1Default = cachesim.Config{Sets: 64, Ways: 12}
	// RQ2Configs are the four L1 configurations one model is trained
	// on (Figure 8).
	RQ2Configs = []cachesim.Config{
		{Sets: 64, Ways: 12},
		{Sets: 128, Ways: 12},
		{Sets: 128, Ways: 6},
		{Sets: 128, Ways: 3},
	}
	// RQ3Configs are the three configurations unseen in training
	// (Figure 9).
	RQ3Configs = []cachesim.Config{
		{Sets: 256, Ways: 6},
		{Sets: 256, Ways: 12},
		{Sets: 32, Ways: 12},
	}
	// HierarchyConfigs are the L1/L2/L3 setup of Figure 10.
	HierarchyConfigs = []cachesim.Config{
		{Sets: 64, Ways: 12},
		{Sets: 1024, Ways: 8},
		{Sets: 2048, Ways: 16},
	}
)

// Runner executes experiments, caching trained models under
// ArtifactsDir.
type Runner struct {
	Scale        Scale
	Profile      Profile
	ArtifactsDir string
	Out          io.Writer
	// SplitSeed fixes the train/test split. It is part of every store
	// key, so runs with different splits never share cached artifacts.
	SplitSeed int64
	// Store, when non-nil, memoises ground-truth simulation results
	// and trained models, and holds training datasets as shards fetched
	// per batch: a rerun of the same figure against a warm store
	// performs zero simulator invocations.
	Store *store.Store
	// CheckpointEvery, when positive, makes trained models write a
	// resumable checkpoint every N epochs next to the model artifact.
	CheckpointEvery int
	// Resume restores training from an existing checkpoint file when
	// one is present.
	Resume bool
	// Workers bounds the parallelism of ground-truth simulation and
	// trace synthesis: 0 means runtime.GOMAXPROCS(0), 1 forces the old
	// serial path. Whatever the value, results are committed in
	// deterministic index order, so every artifact is byte-identical to
	// a serial run. Model prediction always stays serial — the
	// generator's forward pass is not safe for concurrent use on one
	// model.
	Workers int
	// Train is the base TrainConfig applied to every model the harness
	// trains (the cbx-experiments -config file). BatchSize, when set,
	// overrides the profile's; the Parallel section enables
	// deterministic data-parallel sharding. Epochs and Seed stay
	// experiment-controlled (each figure fixes its own for
	// reproducibility), and the dataset/checkpoint sections are managed
	// by the runner itself.
	Train core.TrainConfig

	// logMu serialises progress output: with Workers > 1 the pool's
	// tasks may log (e.g. store warnings) concurrently.
	logMu sync.Mutex
}

// NewRunner builds a runner writing human-readable results to out.
func NewRunner(scale Scale, artifactsDir string, out io.Writer) *Runner {
	if out == nil {
		out = io.Discard
	}
	return &Runner{
		Scale:        scale,
		Profile:      ProfileFor(scale),
		ArtifactsDir: artifactsDir,
		Out:          out,
		SplitSeed:    42,
	}
}

func (r *Runner) logf(format string, args ...any) {
	r.logMu.Lock()
	defer r.logMu.Unlock()
	//lint:ignore unchecked-error progress logging; a failing log writer must not abort an experiment run
	fmt.Fprintf(r.Out, format, args...)
}

// workers resolves the runner's pool width.
func (r *Runner) workers() int {
	if r.Workers <= 0 {
		return par.DefaultWorkers()
	}
	return r.Workers
}

// suites builds the three benchmark suites at the runner's scale.
func (r *Runner) suites() []workload.Suite {
	p := r.Profile
	return []workload.Suite{
		workload.SpecLike(p.SpecGroups, p.SpecPhases, p.Ops),
		workload.LigraLike(p.Ops, p.SuiteScale),
		workload.PolyLike(p.Ops, p.SuiteScale),
	}
}

// specSuite builds only the spec-like suite (most experiments, like
// the paper's, run on SPEC "due to high volume of data").
func (r *Runner) specSuite() workload.Suite {
	p := r.Profile
	return workload.SpecLike(p.SpecGroups, p.SpecPhases, p.Ops)
}

// split returns the 80/20 benchmark split (grouped by program).
func (r *Runner) split(benches []workload.Benchmark) (train, test []workload.Benchmark) {
	return workload.Split(benches, 0.8, r.SplitSeed)
}

// truth is the runner's ground-truth source (internal/stream): every
// figure takes its heatmap pairs, training datasets and hierarchy
// simulations from it. An attached store memoises the pairs and holds
// the training datasets as shards; results are byte-identical with or
// without one and at any Workers width.
func (r *Runner) truth() stream.Truth {
	return stream.Truth{
		Store:      r.Store,
		Heatmap:    r.Profile.Heatmap,
		MaxWindows: r.Profile.MaxPairs,
		SplitSeed:  r.SplitSeed,
		Workers:    r.workers(),
		Logf:       r.logf,
	}
}

// recipeTag names the training-recipe fields the runner's base config
// overrides, e.g. "-bs8-sh4". A model trained under a different recipe
// is a different artifact, so the tag is part of both cache names; it
// is empty when nothing is overridden, which keeps the historical
// names (tiny-fig7-rq1-mixed.cbgan) and store keys.
func (r *Runner) recipeTag() string {
	tag := ""
	if r.Train.BatchSize > 0 {
		tag += fmt.Sprintf("-bs%d", r.Train.BatchSize)
	}
	// Sharded training is a different float reduction order.
	if r.Train.Parallel.Shards > 1 {
		tag += fmt.Sprintf("-sh%d", r.Train.Parallel.Shards)
	}
	return tag
}

// modelPath places a cached model artifact.
func (r *Runner) modelPath(name string) string {
	return filepath.Join(r.ArtifactsDir, fmt.Sprintf("%s-%s%s.cbgan", r.Scale, name, r.recipeTag()))
}

// modelKey derives the store key for a named trained model. It
// includes the split seed: a model trained on a different train/test
// split is a different artifact.
func (r *Runner) modelKey(name string) store.Key {
	k := store.Key{
		Kind:   "model",
		Format: 1,
		Inputs: map[string]string{
			"name":       name,
			"scale":      r.Scale.String(),
			"split_seed": fmt.Sprintf("%d", r.SplitSeed),
		},
	}
	if tag := r.recipeTag(); tag != "" {
		k.Inputs["recipe"] = tag
	}
	return k
}

// trainConfig builds the TrainConfig for a named harness model: the
// runner's base config (Parallel section, BatchSize override) plus the
// experiment's epochs/seed and the runner's checkpoint/resume policy.
// The checkpoint lands next to the model artifact as
// <scale>-<name>.ckpt.
func (r *Runner) trainConfig(name string, epochs int, seed int64) core.TrainConfig {
	cfg := core.TrainConfig{
		Epochs:    epochs,
		BatchSize: r.Profile.BatchSize,
		Seed:      seed,
		Parallel:  r.Train.Parallel,
	}
	if r.Train.BatchSize > 0 {
		cfg.BatchSize = r.Train.BatchSize
	}
	if r.CheckpointEvery <= 0 || r.ArtifactsDir == "" {
		return cfg
	}
	if err := os.MkdirAll(r.ArtifactsDir, 0o755); err != nil {
		r.logf("[%s] warning: no artifacts dir, checkpointing disabled: %v\n", name, err)
		return cfg
	}
	cfg.Checkpoint.Every = r.CheckpointEvery
	cfg.Checkpoint.Path = filepath.Join(r.ArtifactsDir, fmt.Sprintf("%s-%s.ckpt", r.Scale, name))
	if r.Resume {
		if c, err := core.LoadCheckpointFile(cfg.Checkpoint.Path); err == nil {
			cfg.ResumeFrom = c
		} else if !os.IsNotExist(err) {
			r.logf("[%s] warning: ignoring unusable checkpoint %s: %v\n", name, cfg.Checkpoint.Path, err)
		}
	}
	return cfg
}

// trainOrLoad returns the named model, training it with build() on a
// cache miss and persisting the result. The store (when attached) is
// consulted before the legacy per-scale model file.
func (r *Runner) trainOrLoad(name string, build func() (*core.Model, error)) (*core.Model, error) {
	if r.Store != nil {
		if rc, _, err := r.Store.Get(r.modelKey(name)); err == nil {
			m, lerr := core.Load(rc)
			cerr := rc.Close()
			if lerr == nil && cerr == nil {
				r.logf("[%s] loaded model from store\n", name)
				return m, nil
			}
			r.logf("[%s] warning: stored model unusable: load=%v close=%v\n", name, lerr, cerr)
		}
	}
	path := r.modelPath(name)
	if m, err := core.LoadFile(path); err == nil {
		r.logf("[%s] loaded cached model %s\n", name, path)
		return m, nil
	}
	t0 := time.Now()
	m, err := build()
	if err != nil {
		return nil, err
	}
	r.logf("[%s] trained in %.1fs\n", name, time.Since(t0).Seconds())
	if r.ArtifactsDir != "" {
		if err := os.MkdirAll(r.ArtifactsDir, 0o755); err == nil {
			if err := m.SaveFile(path); err != nil {
				r.logf("[%s] warning: could not cache model: %v\n", name, err)
			}
		}
	}
	if r.Store != nil {
		//lint:ignore determinism-taint the clock here only feeds the trained-in log line; the stored bytes come from m.Save alone
		if _, err := r.Store.Put(r.modelKey(name), m.Save); err != nil {
			r.logf("[%s] warning: could not store model: %v\n", name, err)
		}
	}
	return m, nil
}

// BenchRow is one per-benchmark result line.
type BenchRow struct {
	Bench    string
	TrueHit  float64
	PredHit  float64
	AbsDiff  float64 // percentage points
	Excluded bool
}

// renderRows prints a result table and returns the mean abs diff of
// included rows.
func (r *Runner) renderRows(title string, rows []BenchRow) float64 {
	r.logf("\n%s\n%s\n", title, strings.Repeat("-", len(title)))
	r.logf("%-34s %9s %9s %9s\n", "benchmark", "true", "pred", "|diff|%")
	var diffs []float64
	for _, row := range rows {
		if row.Excluded {
			r.logf("%-34s %9s %9s %9s\n", row.Bench, "excl", "-", "-")
			continue
		}
		marker := ""
		switch {
		case row.AbsDiff < 1:
			marker = " •" // the paper's black dot: <1%
		case row.AbsDiff < 2:
			marker = " *" // the paper's green star: 1-2%
		}
		r.logf("%-34s %9.4f %9.4f %8.2f%s\n", row.Bench, row.TrueHit, row.PredHit, row.AbsDiff, marker)
		diffs = append(diffs, row.AbsDiff)
	}
	avg := metrics.Mean(diffs)
	r.logf("average absolute percentage difference: %.2f%% over %d benchmarks\n", avg, len(diffs))
	return avg
}

// sortRows orders rows by name for stable output.
func sortRows(rows []BenchRow) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Bench < rows[j].Bench })
}
