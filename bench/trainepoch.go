package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"cachebox/internal/core"
	"cachebox/internal/harness"
	"cachebox/internal/metrics"
	"cachebox/internal/obs"
	"cachebox/internal/store"
	"cachebox/internal/stream"
)

// train-epoch: the same tensor/nn kernels as offline-eval used
// differently — forward and backward (MatMulATB/ABT, Col2im), Adam,
// dropout, and per-batch shard fetches from the store.
const (
	// The dataset is trainBenches benchmarks × 4 geometries ×
	// trainWindows windows = 128 samples: a multiple of the batch, so
	// every step is the same work, and ~2.5 s an epoch, so a run holds
	// several epochs and ~60 step-latency samples.
	trainBenches = 16
	trainWindows = 2
	// trainOps is the small profile's budget. Only the first two
	// windows of each item are kept, but the build simulates the whole
	// trace for its exact hit rate, which keeps set-up mostly
	// simulation rather than file-system calls, whose cost drifts.
	trainOps    = 120_000
	trainBatch  = 8
	trainShards = 4
)

type trainEpoch struct {
	root    string
	ds      *stream.Dataset
	model   *core.Model
	samples int
	// accessesPerSample is the mean simulated accesses a sample's
	// access heatmap covers.
	accessesPerSample float64
}

func setupTrainEpoch(r *run) (state, error) {
	train, _ := evalSuite(r, r.scaled(evalSpecGroups, 5), r.scaled(trainOps, 12_000))
	n := r.scaled(trainBenches, 2)
	if len(train) < n {
		return nil, fmt.Errorf("train-epoch: split has %d training benchmarks, need %d", len(train), n)
	}
	root, err := os.MkdirTemp(r.opt.workDir, "train-epoch-*")
	if err != nil {
		return nil, err
	}
	s := &trainEpoch{root: root}
	st, err := store.Open(root)
	if err != nil {
		return nil, s.fail(err)
	}
	man, _, err := stream.Build(context.Background(), st, train[:n], harness.RQ2Configs, stream.BuildConfig{
		Name: "train-epoch", Heatmap: harness.ProfileFor(harness.Small).Heatmap, MaxWindows: trainWindows,
	})
	if err != nil {
		return nil, s.fail(err)
	}
	if s.ds, err = stream.OpenDataset(st, man); err != nil {
		return nil, s.fail(err)
	}
	s.samples = s.ds.Len()
	if s.samples == 0 || s.samples%trainBatch != 0 {
		return nil, s.fail(fmt.Errorf("train-epoch: dataset has %d samples, want a positive multiple of %d", s.samples, trainBatch))
	}
	for i := 0; i < s.samples; i++ {
		smp, err := s.ds.At(i)
		if err != nil {
			return nil, s.fail(err)
		}
		s.accessesPerSample += smp.Access.Sum() / float64(s.samples)
	}
	if s.model, err = core.NewModel(modelConfig(r, harness.Small)); err != nil {
		return nil, s.fail(err)
	}
	r.info["samples"] = s.samples
	return s, nil
}

// fail removes the temp store on a set-up error.
func (s *trainEpoch) fail(err error) error {
	return errors.Join(err, s.close())
}

func (s *trainEpoch) close() error { return os.RemoveAll(s.root) }

// stepSource is a core.SampleSource that times every fetch and marks
// the start of every batch: the train loop fetches a batch's samples
// back to back, then steps, so the gap between marks is one step
// including its fetches.
type stepSource struct {
	timedSource
	batch int
	marks []time.Time
	// span, when non-negative, makes every fetch a child span of it.
	span int
	tr   *tracer
}

func (s *stepSource) At(i int) (core.Sample, error) {
	if s.fetches%s.batch == 0 {
		s.marks = append(s.marks, time.Now())
	}
	if s.tr != nil {
		id := s.tr.start("stream.fetch", s.span, s.fetches/s.batch)
		defer s.tr.end(id)
	}
	return s.timedSource.At(i)
}

// stepMs returns each completed step's duration.
func (s *stepSource) stepMs() []float64 {
	var ms []float64
	for i := 1; i < len(s.marks); i++ {
		ms = append(ms, s.marks[i].Sub(s.marks[i-1]).Seconds()*1e3)
	}
	return ms
}

// train runs whole epochs over src until d has elapsed, at least one,
// and checks every epoch's losses.
func (s *trainEpoch) train(r *run, src core.SampleSource, shards int, d time.Duration) (epochs int, err error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	_, err = s.model.TrainSource(src, core.TrainConfig{
		Epochs: math.MaxInt32, BatchSize: trainBatch, Seed: r.opt.seed,
		Parallel: core.Parallelism{Shards: shards},
		Context:  ctx,
		OnEpoch: func(es core.EpochStats) {
			epochs++
			finite := !math.IsNaN(es.DLoss+es.GAdv+es.GL1) && !math.IsInf(es.DLoss+es.GAdv+es.GL1, 0)
			r.check(finite && es.Skipped == 0, "epoch %d: losses D=%v Gadv=%v L1=%v, %d non-finite steps", es.Epoch, es.DLoss, es.GAdv, es.GL1, es.Skipped)
			if time.Since(start) >= d {
				cancel()
			}
		},
	})
	if errors.Is(err, context.Canceled) {
		err = nil
	}
	return epochs, err
}

// warmUp trains one discarded epoch over the first batch.
func (s *trainEpoch) warmUp(r *run) error {
	first := make(core.SliceSource, trainBatch)
	for i := range first {
		var err error
		if first[i], err = s.ds.At(i); err != nil {
			return err
		}
	}
	_, err := s.train(r, first, trainShards, 0)
	return err
}

func (s *trainEpoch) measure(r *run) error {
	if err := s.warmUp(r); err != nil {
		return err
	}
	r.ready()
	src := &stepSource{timedSource: timedSource{src: s.ds}, batch: trainBatch, span: -1}
	epochs, err := s.train(r, src, trainShards, r.phase(1))
	if err != nil {
		return err
	}
	steps := src.stepMs()
	perS := trainBatch / (median(steps) / 1e3)
	r.set("windows_per_s", perS)
	r.set("accesses_per_s", perS*s.accessesPerSample)
	r.set("p50_ms", quantile(steps, 0.5))
	r.set("p90_ms", quantile(steps, 0.9))
	r.info["epochs"] = epochs
	r.info["steps"] = len(steps)
	r.info["fetch_share"] = src.seconds / (sum(steps) / 1e3)
	return nil
}

var obsTrainSpans = map[string]string{
	"train.d_forward":  "obs.train.d_forward_s",
	"train.d_backward": "obs.train.d_backward_s",
	"train.g_forward":  "obs.train.g_forward_s",
	"train.g_backward": "obs.train.g_backward_s",
	"tensor.gemm":      "obs.tensor.gemm_s",
	"tensor.pack":      "obs.tensor.pack_s",
}

var trainEpochLayers = []string{
	"trace_overhead",
	"stream.fetch_s", "stream.fetch_share",
	"core.train_step_ms", "core.train_serial_samples_per_s",
	"core.train_sharded_samples_per_s", "core.sharded_vs_serial",
	"obs.train.d_forward_s", "obs.train.d_backward_s",
	"obs.train.g_forward_s", "obs.train.g_backward_s",
	"obs.tensor.gemm_s", "obs.tensor.pack_s",
}

// layers is the traced run: one untraced sharded epoch, one sharded
// epoch with every fetch in a span, and one serial epoch with the
// program's own train.* spans collected (only the serial step has them).
func (s *trainEpoch) layers(r *run) error {
	tr := r.tr
	if err := s.warmUp(r); err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := s.train(r, s.ds, trainShards, 0); err != nil {
		return err
	}
	untraced := time.Since(t0).Seconds()

	root := tr.start("core.train", -1, -1)
	src := &stepSource{timedSource: timedSource{src: s.ds}, batch: trainBatch, span: root, tr: tr}
	if _, err := s.train(r, src, trainShards, 0); err != nil {
		return err
	}
	tr.end(root)
	wall := tr.seconds(root)
	self := tr.selfSeconds(root)
	sharded := float64(s.samples) / wall
	r.set("trace_overhead", wall/untraced)
	r.set("stream.fetch_s", self["stream.fetch"])
	r.set("stream.fetch_share", self["stream.fetch"]/wall)
	r.set("core.train_step_ms", metrics.Mean(src.stepMs()))
	r.set("core.train_sharded_samples_per_s", sharded)

	obs.Install(obs.NewCollector(obs.Options{}))
	defer obs.Install(nil)
	before := spanSums(obsTrainSpans)
	t0 = time.Now()
	if _, err := s.train(r, s.ds, 0, 0); err != nil {
		return err
	}
	serial := float64(s.samples) / time.Since(t0).Seconds()
	setObs(r, before, obsTrainSpans)
	r.set("core.train_serial_samples_per_s", serial)
	r.set("core.sharded_vs_serial", sharded/serial)
	return nil
}
