package core

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"cachebox/internal/nn"
)

// trainSamples builds a deterministic toy training set shared by the
// checkpoint tests (both runs must see identical data).
func checkpointSamples(size int) []Sample {
	rng := rand.New(rand.NewSource(31))
	return makeToySamples(12, rng, size)
}

// snapshotEqual compares two weight snapshots for exact (bitwise
// float32) equality and reports the first difference.
func snapshotEqual(t *testing.T, a, b []nn.ParamBlob) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("snapshots have %d vs %d blobs", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatalf("blob %d name %q vs %q", i, a[i].Name, b[i].Name)
		}
		if len(a[i].Data) != len(b[i].Data) {
			t.Fatalf("blob %s has %d vs %d values", a[i].Name, len(a[i].Data), len(b[i].Data))
		}
		for j := range a[i].Data {
			if a[i].Data[j] != b[i].Data[j] {
				t.Fatalf("blob %s differs at %d: %v vs %v", a[i].Name, j, a[i].Data[j], b[i].Data[j])
			}
		}
	}
}

// TestResumeBitIdentical is the acceptance test for resumable
// training: a run killed after 3 of 6 epochs and resumed from its
// checkpoint must reach exactly the same final weights as an
// uninterrupted 6-epoch run.
func TestResumeBitIdentical(t *testing.T) {
	cfg := tinyConfig()
	samples := checkpointSamples(cfg.ImageSize)
	opt := TrainConfig{Epochs: 6, BatchSize: 4, Seed: 5}

	// Reference: uninterrupted run.
	ref, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refStats, err := ref.Train(samples, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: train 3 epochs with checkpointing, as if the
	// process died before the remaining epochs.
	ckptPath := filepath.Join(t.TempDir(), "train.ckpt")
	killed, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	partial := opt
	partial.Epochs = 3
	partial.Checkpoint.Every = 1
	partial.Checkpoint.Path = ckptPath
	if _, err := killed.Train(samples, partial); err != nil {
		t.Fatal(err)
	}

	// Resume in a fresh process: new model, checkpoint from disk.
	ckpt, err := LoadCheckpointFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.NextEpoch != 3 {
		t.Fatalf("checkpoint NextEpoch = %d, want 3", ckpt.NextEpoch)
	}
	resumed, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resume := opt
	resume.ResumeFrom = ckpt
	resumedStats, err := resumed.Train(samples, resume)
	if err != nil {
		t.Fatal(err)
	}

	snapshotEqual(t, nn.Snapshot(ref.allState()), nn.Snapshot(resumed.allState()))

	// The resumed run's stats must cover all six epochs and agree with
	// the reference exactly (the loss trajectory is part of
	// bit-identity).
	if len(resumedStats.Epochs) != len(refStats.Epochs) {
		t.Fatalf("resumed stats cover %d epochs, reference %d", len(resumedStats.Epochs), len(refStats.Epochs))
	}
	for i := range refStats.Epochs {
		if refStats.Epochs[i] != resumedStats.Epochs[i] {
			t.Fatalf("epoch %d stats diverge: %+v vs %+v", i, refStats.Epochs[i], resumedStats.Epochs[i])
		}
	}
}

func TestCheckpointRoundTripStream(t *testing.T) {
	cfg := tinyConfig()
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples := checkpointSamples(cfg.ImageSize)
	opt := TrainConfig{Epochs: 2, BatchSize: 4, Seed: 5}
	if _, err := m.Train(samples, opt); err != nil {
		t.Fatal(err)
	}
	optG := nn.NewAdam(m.G.Params(), m.Cfg.LR)
	optD := nn.NewAdam(m.D.Params(), m.Cfg.LR)
	c := m.checkpoint(2, opt, len(samples), optG, optD, &TrainStats{})

	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cfg != c.Cfg || got.NextEpoch != 2 || got.Samples != len(samples) ||
		got.Seed != 5 || got.BatchSize != 4 {
		t.Fatalf("checkpoint fields did not round-trip: %+v", got)
	}
	snapshotEqual(t, c.Weights, got.Weights)
	if len(got.DropoutCursors) != len(m.G.Dropouts()) {
		t.Fatalf("cursors = %d, want %d", len(got.DropoutCursors), len(m.G.Dropouts()))
	}
	if got.DropoutCursors[0] == 0 {
		t.Fatal("dropout cursor is zero after two training epochs")
	}
}

func TestLoadCheckpointRejectsModelFile(t *testing.T) {
	m, err := NewModel(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(&buf); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("LoadCheckpoint on a model file: err = %v, want ErrBadCheckpoint", err)
	}
}

func TestResumeRejectsMismatchedRun(t *testing.T) {
	cfg := tinyConfig()
	samples := checkpointSamples(cfg.ImageSize)
	opt := TrainConfig{Epochs: 2, BatchSize: 4, Seed: 5,
		Checkpoint: CheckpointPolicy{Every: 2, Path: filepath.Join(t.TempDir(), "c.ckpt")}}
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train(samples, opt); err != nil {
		t.Fatal(err)
	}
	ckpt, err := LoadCheckpointFile(opt.Checkpoint.Path)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		mod  func(*TrainConfig, *[]Sample)
	}{
		{"seed", func(o *TrainConfig, _ *[]Sample) { o.Seed = 6 }},
		{"batch", func(o *TrainConfig, _ *[]Sample) { o.BatchSize = 2 }},
		{"samples", func(_ *TrainConfig, s *[]Sample) { *s = (*s)[:8] }},
		{"epochs", func(o *TrainConfig, _ *[]Sample) { o.Epochs = 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m2, err := NewModel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			o := TrainConfig{Epochs: 4, BatchSize: 4, Seed: 5, ResumeFrom: ckpt}
			s := samples
			tc.mod(&o, &s)
			if _, err := m2.Train(s, o); !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("mismatched %s resumed anyway: err = %v", tc.name, err)
			}
		})
	}
}

// TestResumeRejectsForgedDropoutCursor: a run's dropout cursors are
// fully determined (completed epochs × samples × the layer's
// activations per sample), and any other stored value is refused with
// ErrBadCheckpoint before SeekTo replays it — 1<<40 draws would stall
// the resume for hours, and a negative cursor means nothing.
func TestResumeRejectsForgedDropoutCursor(t *testing.T) {
	cfg := tinyConfig()
	samples := checkpointSamples(cfg.ImageSize)
	opt := TrainConfig{Epochs: 2, BatchSize: 4, Seed: 5,
		Checkpoint: CheckpointPolicy{Every: 2, Path: filepath.Join(t.TempDir(), "c.ckpt")}}
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train(samples, opt); err != nil {
		t.Fatal(err)
	}
	ckpt, err := LoadCheckpointFile(opt.Checkpoint.Path)
	if err != nil {
		t.Fatal(err)
	}
	// tinyConfig's two dropout layers see 16×2×2 and 8×4×4 activations
	// per sample.
	if got, want := ckpt.DropoutCursors, []int64{2 * 12 * 64, 2 * 12 * 128}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("dropout cursors %v, want %v", got, want)
	}
	for _, layer := range []int{0, 1} {
		for _, cursor := range []int64{1 << 40, -1} {
			forged := *ckpt
			forged.DropoutCursors = append([]int64(nil), ckpt.DropoutCursors...)
			forged.DropoutCursors[layer] = cursor
			m2, err := NewModel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			o := TrainConfig{Epochs: 4, BatchSize: 4, Seed: 5, ResumeFrom: &forged}
			if _, err := m2.Train(samples, o); !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("layer %d cursor %d resumed anyway: err = %v", layer, cursor, err)
			}
		}
	}
}
