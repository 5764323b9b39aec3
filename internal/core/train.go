package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"

	"cachebox/internal/heatmap"
	"cachebox/internal/nn"
	"cachebox/internal/obs"
)

// EpochStats records the mean losses of one training epoch.
type EpochStats struct {
	Epoch int
	DLoss float64 // discriminator BCE (real + fake halves)
	GAdv  float64 // generator adversarial BCE
	GL1   float64 // generator L1 reconstruction term (sample-weighted when weights are set)

	Batches int
	Skipped int // batches skipped due to non-finite losses
}

// SampleSource supplies training samples by index. It abstracts over
// the in-memory sample slice and the streaming sharded datasets of
// internal/stream, so the train loop never needs the whole dataset
// materialised. At may be called for the same index many times (once
// per epoch); implementations should make repeated access cheap.
type SampleSource interface {
	// Len returns the number of samples.
	Len() int
	// At returns sample i in [0, Len()).
	At(i int) (Sample, error)
}

// SliceSource adapts an in-memory sample slice to SampleSource.
type SliceSource []Sample

// Len returns the number of samples.
func (s SliceSource) Len() int { return len(s) }

// At returns sample i.
func (s SliceSource) At(i int) (Sample, error) { return s[i], nil }

// TrainStats aggregates per-epoch statistics.
type TrainStats struct {
	Epochs []EpochStats
}

// Final returns the last epoch's stats (zero value when empty).
func (ts *TrainStats) Final() EpochStats {
	if len(ts.Epochs) == 0 {
		return EpochStats{}
	}
	return ts.Epochs[len(ts.Epochs)-1]
}

// Train runs the CB-GAN adversarial training loop (paper Fig. 6): the
// discriminator learns to separate Real from Synthetic (access, miss)
// pairs while the generator minimises the adversarial loss plus
// λ-weighted L1 reconstruction (Eq. 1). cfg is the versioned training
// configuration; the zero value (defaults filled by the loop) trains
// one epoch serially.
func (m *Model) Train(samples []Sample, cfg TrainConfig) (*TrainStats, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("core: no training samples")
	}
	for i, s := range samples {
		if err := m.validateSample(i, s); err != nil {
			return nil, err
		}
	}
	return m.trainLoop(SliceSource(samples), cfg)
}

// TrainSource runs the identical training loop over a lazily loaded
// sample source, e.g. a sharded streaming dataset. Batching, shuffling
// and checkpointing are byte-for-byte the same as Train — a SliceSource
// over the materialised samples produces an identical model — but
// samples are fetched per batch, so the dataset never has to fit in
// memory. Samples are validated as they are fetched; a source error
// aborts training.
func (m *Model) TrainSource(src SampleSource, cfg TrainConfig) (*TrainStats, error) {
	if src == nil || src.Len() == 0 {
		return nil, fmt.Errorf("core: no training samples")
	}
	return m.trainLoop(src, cfg)
}

func (m *Model) validateSample(i int, s Sample) error {
	if s.Access == nil || s.Miss == nil {
		return fmt.Errorf("core: sample %d has nil heatmaps", i)
	}
	if s.Access.H != m.Cfg.ImageSize || s.Access.W != m.Cfg.ImageSize {
		return fmt.Errorf("core: sample %d is %dx%d, model expects %dx%d",
			i, s.Access.H, s.Access.W, m.Cfg.ImageSize, m.Cfg.ImageSize)
	}
	return nil
}

func (m *Model) trainLoop(src SampleSource, cfg TrainConfig) (*TrainStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.normalized()
	if cfg.ResumeFrom == nil && cfg.Checkpoint.Resume != "" {
		c, err := LoadCheckpointFile(cfg.Checkpoint.Resume)
		switch {
		case err == nil:
			cfg.ResumeFrom = c
		case errors.Is(err, os.ErrNotExist):
			// No checkpoint yet: start fresh. Resume is opportunistic so
			// a restarted job needs no conditional wiring.
		default:
			return nil, err
		}
	}
	n := src.Len()
	runCtx := cfg.Context
	if runCtx == nil {
		runCtx = context.Background()
	}
	ctx, trainSpan := obs.Start(runCtx, "train")
	trainSpan.TagInt("samples", n)
	trainSpan.TagInt("epochs", cfg.Epochs)
	trainSpan.TagInt("batch_size", cfg.BatchSize)
	trainSpan.TagInt("shards", cfg.Parallel.Shards)
	defer trainSpan.End()
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	optG := nn.NewAdam(m.G.Params(), m.Cfg.LR)
	optD := nn.NewAdam(m.D.Params(), m.Cfg.LR)
	tr, err := newTrainer(m, cfg.Parallel.Shards, cfg.Parallel.Workers, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// stepsPerEpoch makes the optimiser-step index a pure function of
	// (epoch, batch offset); the sharded dropout streams key off it.
	stepsPerEpoch := (n + cfg.BatchSize - 1) / cfg.BatchSize
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	stats := &TrainStats{}
	startEpoch := 0
	if cfg.ResumeFrom != nil {
		startEpoch, err = m.restoreCheckpoint(cfg.ResumeFrom, cfg, n, optG, optD, stats)
		if err != nil {
			return nil, err
		}
		// Replay the shuffle RNG through the completed epochs so the
		// remaining epochs see the same batch orders as an
		// uninterrupted run.
		for e := 0; e < startEpoch; e++ {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		if cfg.Log != nil {
			//lint:ignore unchecked-error progress logging; a failing log writer must not abort training
			fmt.Fprintf(cfg.Log, "resumed from checkpoint: %d/%d epochs complete\n", startEpoch, cfg.Epochs)
		}
	}
	for epoch := startEpoch; epoch < cfg.Epochs; epoch++ {
		epochCtx, epochSpan := obs.Start(ctx, "train.epoch")
		epochSpan.TagInt("epoch", epoch)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		es := EpochStats{Epoch: epoch}
		for lo := 0; lo < len(order); lo += cfg.BatchSize {
			if err := runCtx.Err(); err != nil {
				epochSpan.End()
				return nil, fmt.Errorf("core: training canceled: %w", err)
			}
			hi := lo + cfg.BatchSize
			if hi > len(order) {
				hi = len(order)
			}
			batch := make([]Sample, 0, hi-lo)
			for _, idx := range order[lo:hi] {
				s, err := src.At(idx)
				if err != nil {
					epochSpan.End()
					return nil, fmt.Errorf("core: loading sample %d: %w", idx, err)
				}
				if err := m.validateSample(idx, s); err != nil {
					epochSpan.End()
					return nil, err
				}
				batch = append(batch, s)
			}
			d, g, l1, ok, err := tr.step(epochCtx, batch, epoch*stepsPerEpoch+lo/cfg.BatchSize, optG, optD)
			if err != nil {
				epochSpan.End()
				return nil, err
			}
			es.Batches++
			if !ok {
				es.Skipped++
				continue
			}
			es.DLoss += d
			es.GAdv += g
			es.GL1 += l1
		}
		if n := es.Batches - es.Skipped; n > 0 {
			es.DLoss /= float64(n)
			es.GAdv /= float64(n)
			es.GL1 /= float64(n)
		}
		stats.Epochs = append(stats.Epochs, es)
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(es)
		}
		if cfg.Log != nil {
			//lint:ignore unchecked-error progress logging; a failing log writer must not abort training
			fmt.Fprintf(cfg.Log, "epoch %d: D=%.4f Gadv=%.4f L1=%.4f (batches=%d skipped=%d)\n",
				epoch, es.DLoss, es.GAdv, es.GL1, es.Batches, es.Skipped)
		}
		if cfg.Checkpoint.Every > 0 && cfg.Checkpoint.Path != "" &&
			((epoch+1)%cfg.Checkpoint.Every == 0 || epoch == cfg.Epochs-1) {
			_, ckptSpan := obs.Start(epochCtx, "train.checkpoint")
			c := m.checkpoint(epoch+1, cfg, n, optG, optD, stats)
			err := c.SaveFile(cfg.Checkpoint.Path)
			ckptSpan.End()
			if err != nil {
				epochSpan.End()
				return nil, err
			}
		}
		epochSpan.End()
	}
	return stats, nil
}

func isFinite(f float64) bool { return f == f && f < 1e30 && f > -1e30 }

// batchWeights extracts per-sample training weights, or nil when every
// weight is 1 (or unset, which means 1) so the unweighted path — and
// its exact float summation order — is used for ordinary datasets.
func batchWeights(batch []Sample) []float64 {
	weighted := false
	for _, s := range batch {
		if s.Weight != 0 && s.Weight != 1 {
			weighted = true
			break
		}
	}
	if !weighted {
		return nil
	}
	w := make([]float64, len(batch))
	for i, s := range batch {
		if s.Weight == 0 {
			w[i] = 1
		} else {
			w[i] = s.Weight
		}
	}
	return w
}

func collectAccess(batch []Sample) []*heatmap.Heatmap {
	out := make([]*heatmap.Heatmap, len(batch))
	for i, s := range batch {
		out[i] = s.Access
	}
	return out
}

func collectMiss(batch []Sample) []*heatmap.Heatmap {
	out := make([]*heatmap.Heatmap, len(batch))
	for i, s := range batch {
		out[i] = s.Miss
	}
	return out
}
