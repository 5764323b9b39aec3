package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"cachebox/internal/nn"
	"cachebox/internal/tensor"
)

// TrainSource over the materialised samples must produce a
// byte-identical model to Train: same shuffles, same batches, same
// arithmetic.
func TestTrainSourceMatchesTrain(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	samples := makeToySamples(10, rng, 16)
	opt := TrainConfig{Epochs: 3, BatchSize: 4, Seed: 5}

	m1, err := NewModel(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Train(samples, opt); err != nil {
		t.Fatal(err)
	}
	m2, err := NewModel(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.TrainSource(SliceSource(samples), opt); err != nil {
		t.Fatal(err)
	}

	var b1, b2 bytes.Buffer
	if err := m1.Save(&b1); err != nil {
		t.Fatal(err)
	}
	if err := m2.Save(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("TrainSource model differs from Train model")
	}
}

type failingSource struct {
	SliceSource
	failAt int
}

func (f failingSource) At(i int) (Sample, error) {
	if i == f.failAt {
		return Sample{}, errors.New("shard gone")
	}
	return f.SliceSource.At(i)
}

func TestTrainSourceErrorAborts(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	samples := makeToySamples(6, rng, 16)
	m, err := NewModel(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.TrainSource(failingSource{SliceSource(samples), 3}, TrainConfig{Epochs: 1, BatchSize: 2})
	if err == nil {
		t.Fatal("source error did not abort training")
	}
}

func TestTrainSourceEmpty(t *testing.T) {
	m, err := NewModel(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TrainSource(SliceSource(nil), TrainConfig{}); err == nil {
		t.Fatal("empty source accepted")
	}
}

// With all weights 1 the weighted loss must equal the unweighted one
// exactly — bit-for-bit, so unsampled datasets keep their byte-identity
// guarantee even if a caller routes them through the weighted path.
func TestWeightedL1LossUnitWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	a := tensor.New(4, 8)
	b := tensor.New(4, 8)
	for i := range a.Data {
		a.Data[i] = rng.Float32()*2 - 1
		b.Data[i] = rng.Float32()*2 - 1
	}
	wantLoss, wantGrad := nn.L1Loss(a, b)
	gotLoss, gotGrad := nn.WeightedL1Loss(a, b, []float64{1, 1, 1, 1})
	if wantLoss != gotLoss {
		t.Fatalf("loss %v != %v", gotLoss, wantLoss)
	}
	for i := range wantGrad.Data {
		if wantGrad.Data[i] != gotGrad.Data[i] {
			t.Fatalf("grad[%d] %v != %v", i, gotGrad.Data[i], wantGrad.Data[i])
		}
	}
}

func TestWeightedL1LossScalesPerSample(t *testing.T) {
	a := tensor.New(2, 2)
	b := tensor.New(2, 2)
	a.Data = []float32{1, 1, 1, 1}
	b.Data = []float32{0, 0, 0, 0}
	// Sample 0 weight 3, sample 1 weight 1: loss = (3+3+1+1)/4 = 2.
	loss, grad := nn.WeightedL1Loss(a, b, []float64{3, 1})
	if loss != 2 {
		t.Fatalf("loss = %v, want 2", loss)
	}
	if grad.Data[0] != 0.75 || grad.Data[3] != 0.25 {
		t.Fatalf("grads = %v, want [0.75 0.75 0.25 0.25]", grad.Data)
	}
}

// Weighted samples flow through the training step without breaking training.
func TestTrainWithWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	samples := makeToySamples(8, rng, 16)
	for i := range samples {
		samples[i].Weight = 0.5 + float64(i%3)
	}
	m, err := NewModel(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.Train(samples, TrainConfig{Epochs: 2, BatchSize: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Final().Batches == 0 {
		t.Fatal("no batches ran")
	}
}
