package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"cachebox/internal/nn"
	"cachebox/internal/obs"
	"cachebox/internal/par"
	"cachebox/internal/tensor"
)

// shardedSamples is the shared toy dataset of the data-parallel tests.
func shardedSamples(size int) []Sample {
	rng := rand.New(rand.NewSource(41))
	return makeToySamples(14, rng, size)
}

// modelHash trains a fresh tiny model under cfg and returns the
// SHA-256 of its serialised bytes plus the final epoch stats.
func modelHash(t *testing.T, samples []Sample, cfg TrainConfig) (string, EpochStats) {
	t.Helper()
	m, err := NewModel(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.Train(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), stats.Final()
}

// TestShardedWorkerCountInvariance is the tentpole's golden test: with
// the shard count fixed in the config, the trained model's serialised
// bytes — and its loss trajectory — are identical at every worker
// count. j1 vs j8 is the headline pair; intermediate widths ride along.
func TestShardedWorkerCountInvariance(t *testing.T) {
	samples := shardedSamples(16)
	base := TrainConfig{Epochs: 3, BatchSize: 5, Seed: 9,
		Parallel: Parallelism{Shards: 4, Workers: 1}}
	refHash, refFinal := modelHash(t, samples, base)
	for _, workers := range []int{2, 3, 8} {
		cfg := base
		cfg.Parallel.Workers = workers
		hash, final := modelHash(t, samples, cfg)
		if hash != refHash {
			t.Errorf("-j %d model hash %s != -j 1 hash %s", workers, hash, refHash)
		}
		if final != refFinal {
			t.Errorf("-j %d final stats %+v != -j 1 stats %+v", workers, final, refFinal)
		}
	}
}

// TestShardedDeterministicAcrossRuns pins run-to-run determinism of
// the sharded path itself (same config twice → same bytes).
func TestShardedDeterministicAcrossRuns(t *testing.T) {
	samples := shardedSamples(16)
	cfg := TrainConfig{Epochs: 2, BatchSize: 4, Seed: 3,
		Parallel: Parallelism{Shards: 3}}
	a, _ := modelHash(t, samples, cfg)
	b, _ := modelHash(t, samples, cfg)
	if a != b {
		t.Fatalf("two identical sharded runs diverged: %s vs %s", a, b)
	}
}

// TestShardedTrainsDifferentlyFromSerial documents that sharding is a
// different training recipe, not a reordering of the serial one: the
// gradient reduction averages shard means, so shards>1 legitimately
// produces a different (equally valid) model. This is why checkpoints
// and store keys record the shard count.
func TestShardedTrainsDifferentlyFromSerial(t *testing.T) {
	samples := shardedSamples(16)
	serial := TrainConfig{Epochs: 2, BatchSize: 5, Seed: 9}
	sharded := serial
	sharded.Parallel.Shards = 4
	a, _ := modelHash(t, samples, serial)
	b, _ := modelHash(t, samples, sharded)
	if a == b {
		t.Fatal("sharded and serial training produced identical models; dropout streams or reduction are not engaged")
	}
}

// TestShardedResumeBitIdentical is kill-and-resume under data
// parallelism: a sharded run killed mid-run and resumed from its
// checkpoint matches the uninterrupted sharded run bit for bit,
// at a different worker count than it was started with.
func TestShardedResumeBitIdentical(t *testing.T) {
	samples := shardedSamples(16)
	base := TrainConfig{Epochs: 4, BatchSize: 5, Seed: 7,
		Parallel: Parallelism{Shards: 4, Workers: 2}}
	refHash, refFinal := modelHash(t, samples, base)

	ckptPath := filepath.Join(t.TempDir(), "sharded.ckpt")
	killed, err := NewModel(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	partial := base
	partial.Epochs = 2
	partial.Checkpoint.Every = 1
	partial.Checkpoint.Path = ckptPath
	if _, err := killed.Train(samples, partial); err != nil {
		t.Fatal(err)
	}

	ckpt, err := LoadCheckpointFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.Shards != 4 {
		t.Fatalf("checkpoint Shards = %d, want 4", ckpt.Shards)
	}
	resumed, err := NewModel(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	resume := base
	resume.Parallel.Workers = 8 // worker count may change across restarts
	resume.ResumeFrom = ckpt
	stats, err := resumed.Train(samples, resume)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := resumed.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != refHash {
		t.Fatalf("resumed sharded model hash %s != uninterrupted %s", got, refHash)
	}
	if final := stats.Final(); final != refFinal {
		t.Fatalf("resumed final stats %+v != reference %+v", final, refFinal)
	}
}

// TestShardedResumeRejectsShardMismatch: a checkpoint records its shard
// count and refuses to resume under a different one (the reduction
// order is part of the recipe).
func TestShardedResumeRejectsShardMismatch(t *testing.T) {
	samples := shardedSamples(16)
	ckptPath := filepath.Join(t.TempDir(), "sharded.ckpt")
	cfg := TrainConfig{Epochs: 2, BatchSize: 5, Seed: 7,
		Parallel:   Parallelism{Shards: 4},
		Checkpoint: CheckpointPolicy{Every: 1, Path: ckptPath}}
	m, err := NewModel(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train(samples, cfg); err != nil {
		t.Fatal(err)
	}
	ckpt, err := LoadCheckpointFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		m2, err := NewModel(tinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		bad := TrainConfig{Epochs: 4, BatchSize: 5, Seed: 7,
			Parallel: Parallelism{Shards: shards}, ResumeFrom: ckpt}
		if _, err := m2.Train(samples, bad); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("shards=%d resumed a shards=4 checkpoint: err = %v", shards, err)
		}
	}
}

// TestShardedRejectsBadShardCounts covers constructor validation.
func TestShardedRejectsBadShardCounts(t *testing.T) {
	m, err := NewModel(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newTrainer(m, 0, 0, 1); err == nil {
		t.Fatal("shards=0 accepted by the trainer")
	}
	if _, err := m.Train(shardedSamples(16), TrainConfig{Parallel: Parallelism{Shards: -2}}); err == nil {
		t.Fatal("negative shard count accepted")
	}
}

// TestShardRanges pins the contiguous shard-boundary rule: boundaries
// depend only on (batch length, shard count), with the remainder
// spread over the leading shards.
func TestShardRanges(t *testing.T) {
	tr := &trainer{shards: 4}
	cases := []struct {
		n    int
		want [][2]int
	}{
		{10, [][2]int{{0, 3}, {3, 6}, {6, 8}, {8, 10}}},
		{4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}},
		{3, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 3}}},
		{1, [][2]int{{0, 1}, {1, 1}, {1, 1}, {1, 1}}},
	}
	for _, tc := range cases {
		got := tr.shardRanges(tc.n)
		if len(got) != len(tc.want) {
			t.Fatalf("n=%d: %d ranges, want %d", tc.n, len(got), len(tc.want))
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("n=%d shard %d: %v, want %v", tc.n, i, got[i], tc.want[i])
			}
		}
	}
}

// TestDropoutSeedStability pins the splitmix64-chained dropout seed
// derivation: any change to it silently breaks resume compatibility of
// sharded checkpoints, so the values are frozen here.
func TestDropoutSeedStability(t *testing.T) {
	if a, b := dropoutSeed(9, 3, 1, 0), dropoutSeed(9, 3, 1, 0); a != b {
		t.Fatalf("dropoutSeed is not a pure function: %d vs %d", a, b)
	}
	seen := map[int64]bool{}
	for step := 0; step < 3; step++ {
		for shard := 0; shard < 3; shard++ {
			for layer := 0; layer < 2; layer++ {
				s := dropoutSeed(9, step, shard, layer)
				if seen[s] {
					t.Fatalf("dropout seed collision at step=%d shard=%d layer=%d", step, shard, layer)
				}
				seen[s] = true
			}
		}
	}
}

// TestShardedPacksFollowWeightUpdates: the replicas read the main
// model's packed conv weights, and never a pack of an old version.
// After optD steps the discriminator, after optG steps the generator
// and after a resume restores other weights — each before and after the
// trainer re-packs — every conv layer of every replica gives the
// forward, input gradient and weight gradient of a fresh layer holding
// the same weights, which packs nothing, bit for bit.
func TestShardedPacksFollowWeightUpdates(t *testing.T) {
	m, err := NewModel(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := newTrainer(m, 2, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	optG, optD := nn.NewAdam(m.G.Params(), 0.05), nn.NewAdam(m.D.Params(), 0.05)
	ctx := context.Background()
	if _, _, _, ok, err := tr.step(ctx, shardedSamples(16)[:4], 0, optG, optD); err != nil || !ok {
		t.Fatalf("step: ok=%v err=%v", ok, err)
	}
	rng := rand.New(rand.NewSource(43))
	check := func(when string) {
		t.Helper()
		for s, rep := range tr.reps {
			var layers []nn.Layer
			for _, c := range rep.m.G.convs {
				layers = append(layers, c)
			}
			for _, u := range rep.m.G.ups {
				layers = append(layers, u)
			}
			for _, l := range rep.m.D.net.Layers {
				if c, ok := l.(*nn.Conv2d); ok {
					layers = append(layers, c)
				}
			}
			for _, l := range layers {
				var fresh nn.Layer
				var x *tensor.Tensor
				switch c := l.(type) {
				case *nn.Conv2d:
					fresh = nn.NewConv2d(rng, "fresh", c.InC, c.OutC, c.Kernel, c.Stride, c.Pad)
					x = tensor.New(2, c.InC, 8, 8)
				case *nn.ConvTranspose2d:
					fresh = nn.NewConvTranspose2d(rng, "fresh", c.InC, c.OutC, c.Kernel, c.Stride, c.Pad)
					x = tensor.New(2, c.InC, 4, 4)
				}
				x.RandNormal(rng, 0, 1)
				name := l.Params()[0].Name
				label := fmt.Sprintf("%s: replica %d %s", when, s, name)
				for i, p := range l.Params() {
					copy(fresh.Params()[i].Value.Data, p.Value.Data)
				}
				nn.ZeroGrads(l.Params())
				want := fresh.Forward(x, true)
				assertSameBits(t, l.Forward(x, true), want, label+" forward")
				dy := tensor.New(want.Shape...)
				dy.RandNormal(rng, 0, 1)
				assertSameBits(t, l.Backward(dy), fresh.Backward(dy), label+" input gradient")
				assertSameBits(t, l.Params()[0].Grad, fresh.Params()[0].Grad, label+" weight gradient")
			}
		}
	}
	step := func(opt *nn.Adam, ps []*nn.Param) {
		for _, p := range ps {
			p.Grad.RandNormal(rng, 0, 1)
		}
		opt.Step()
	}
	check("after a step")
	step(optD, m.D.Params())
	check("after optD")
	if err := tr.packWeights(ctx, tr.convD); err != nil {
		t.Fatal(err)
	}
	check("after optD and packing D")
	step(optG, m.G.Params())
	check("after optG")
	if err := tr.packWeights(ctx, tr.convs); err != nil {
		t.Fatal(err)
	}
	check("after optG and packing")
	other := tinyConfig()
	other.Seed = 99
	om, err := NewModel(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.Restore(nn.Snapshot(om.allState()), m.allState()); err != nil {
		t.Fatal(err)
	}
	check("after Restore")
	if err := tr.packWeights(ctx, tr.convs); err != nil {
		t.Fatal(err)
	}
	check("after Restore and packing")
}

// TestTrainedModelHashesPinned pins the bytes of the models both step
// shapes train, one shard and four: any change to the training step
// that moves a bit of either shows here. The constants were recorded on
// amd64, which fuses no multiply-add, so other architectures skip the
// comparison but still train both models.
func TestTrainedModelHashesPinned(t *testing.T) {
	samples := shardedSamples(16)
	for _, tc := range []struct {
		shards int
		want   string
	}{
		{1, "bfa8e80f171469e1b0c7b15bc3805e7125d7d37d30b470095241bcdb5c817e64"},
		{4, "cd0e1848a9abbc79a9139429a7aa8ada172bb79160af1ba32f5e1792371673c8"},
	} {
		hash, _ := modelHash(t, samples, TrainConfig{Epochs: 2, BatchSize: 5, Seed: 9,
			Parallel: Parallelism{Shards: tc.shards}})
		if runtime.GOARCH != "amd64" {
			continue
		}
		if hash != tc.want {
			t.Errorf("shards=%d: model hash %s, want %s", tc.shards, hash, tc.want)
		}
	}
}

// TestTrainRecordsPhaseSpans: under an installed collector, training
// records the step span and the four phase spans whose sums the
// train-epoch benchmark reports, at one shard and at four.
func TestTrainRecordsPhaseSpans(t *testing.T) {
	prev := obs.Installed()
	t.Cleanup(func() { obs.Install(prev) })
	samples := shardedSamples(16)[:4]
	for _, shards := range []int{1, 4} {
		c := obs.NewCollector(obs.Options{Trace: true})
		obs.Install(c)
		m, err := NewModel(tinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Train(samples, TrainConfig{BatchSize: 4, Parallel: Parallelism{Shards: shards}}); err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{}
		for _, n := range c.SpanNames() {
			names[n] = true
		}
		for _, want := range []string{"train.step", "train.g_forward", "train.d_forward", "train.d_backward", "train.g_backward"} {
			if !names[want] {
				t.Errorf("shards=%d: no %s span among %v", shards, want, c.SpanNames())
			}
		}
	}
}

// TestTrainStepPanicIsAnError: a panic inside the step (here a sample
// with the wrong number of cache parameters) comes back from Train as
// a *par.PanicError at one shard as at four, instead of crashing the
// process.
func TestTrainStepPanicIsAnError(t *testing.T) {
	samples := shardedSamples(16)[:4]
	samples[2].Params = samples[2].Params[:1]
	for _, shards := range []int{1, 4} {
		m, err := NewModel(tinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		_, err = m.Train(samples, TrainConfig{BatchSize: 4, Parallel: Parallelism{Shards: shards}})
		var pe *par.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("shards=%d: err = %v, want a *par.PanicError", shards, err)
		}
	}
}
