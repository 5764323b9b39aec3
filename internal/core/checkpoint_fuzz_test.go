package core

import (
	"bytes"
	"path/filepath"
	"testing"

	"cachebox/internal/nn"
)

// FuzzLoadCheckpoint fuzzes the .cbckpt file a training run resumes
// from: every input is decoded and, if that succeeds, restored into a
// fresh tiny model under the producing run's options. Either step may
// reject the input; neither may panic or stall (a forged dropout
// cursor would make the restore replay up to 2^63 draws).
func FuzzLoadCheckpoint(f *testing.F) {
	cfg := tinyConfig()
	samples := checkpointSamples(cfg.ImageSize)[:4]
	run := TrainConfig{Epochs: 2, BatchSize: 4, Seed: 5,
		Checkpoint: CheckpointPolicy{Every: 1, Path: filepath.Join(f.TempDir(), "c.ckpt")}}
	m, err := NewModel(cfg)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := m.Train(samples, run); err != nil {
		f.Fatal(err)
	}
	ckpt, err := LoadCheckpointFile(run.Checkpoint.Path)
	if err != nil {
		f.Fatal(err)
	}
	encode := func(c Checkpoint) []byte {
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := encode(*ckpt)
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated inside the body
	for _, cursor := range []int64{1 << 40, -1} {
		c := *ckpt
		c.DropoutCursors = []int64{cursor, ckpt.DropoutCursors[1]}
		f.Add(encode(c))
	}
	early := *ckpt
	early.NextEpoch = -1
	f.Add(encode(early))
	resume := run
	resume.Epochs = 4
	resume.Checkpoint = CheckpointPolicy{}
	resume = resume.normalized()
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := LoadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		optG, optD := nn.NewAdam(m.G.Params(), cfg.LR), nn.NewAdam(m.D.Params(), cfg.LR)
		//lint:ignore unchecked-error either outcome is fine; the input must only not panic or stall
		m.restoreCheckpoint(c, resume, len(samples), optG, optD, &TrainStats{})
	})
}
