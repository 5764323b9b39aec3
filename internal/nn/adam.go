package nn

import (
	"context"
	"fmt"
	"math"

	"cachebox/internal/par"
	"cachebox/internal/tensor"
)

// Adam is the Adam optimiser with the Pix2Pix defaults (lr 2e-4,
// beta1 0.5, beta2 0.999).
type Adam struct {
	LR     float64
	Beta1  float64
	Beta2  float64
	Eps    float64
	params []*Param
	m, v   []*tensor.Tensor
	step   int
}

// NewAdam builds an optimiser over params. lr <= 0 selects the Pix2Pix
// default 2e-4.
func NewAdam(params []*Param, lr float64) *Adam {
	if lr <= 0 {
		lr = 2e-4
	}
	a := &Adam{LR: lr, Beta1: 0.5, Beta2: 0.999, Eps: 1e-8, params: params}
	for _, p := range params {
		a.m = append(a.m, tensor.New(p.Value.Shape...))
		a.v = append(a.v, tensor.New(p.Value.Shape...))
	}
	return a
}

// AdamState is the serialisable snapshot of an optimiser: the step
// counter (which drives bias correction) and the first/second moment
// accumulators, in parameter order. Restoring it into a fresh Adam
// over the same parameters makes the next Step bit-identical to one
// taken by the original optimiser — the basis of checkpoint resume.
type AdamState struct {
	Step int
	M, V []ParamBlob
}

// State snapshots the optimiser for serialisation.
func (a *Adam) State() AdamState {
	st := AdamState{Step: a.step}
	for i, p := range a.params {
		st.M = append(st.M, ParamBlob{
			Name:  p.Name,
			Shape: append([]int(nil), a.m[i].Shape...),
			Data:  append([]float32(nil), a.m[i].Data...),
		})
		st.V = append(st.V, ParamBlob{
			Name:  p.Name,
			Shape: append([]int(nil), a.v[i].Shape...),
			Data:  append([]float32(nil), a.v[i].Data...),
		})
	}
	return st
}

// SetState restores a snapshot taken by State. The optimiser must be
// built over the same parameters (count, order and sizes).
func (a *Adam) SetState(st AdamState) error {
	if len(st.M) != len(a.params) || len(st.V) != len(a.params) {
		return fmt.Errorf("nn: adam state has %d/%d moment blobs, optimiser has %d params",
			len(st.M), len(st.V), len(a.params))
	}
	for i := range a.params {
		if len(st.M[i].Data) != a.m[i].Len() || len(st.V[i].Data) != a.v[i].Len() {
			return fmt.Errorf("nn: adam state blob %d (%s) has %d/%d values, optimiser expects %d",
				i, st.M[i].Name, len(st.M[i].Data), len(st.V[i].Data), a.m[i].Len())
		}
		copy(a.m[i].Data, st.M[i].Data)
		copy(a.v[i].Data, st.V[i].Data)
	}
	a.step = st.Step
	return nil
}

// Step applies one update from the accumulated gradients and clears
// them. The update is elementwise, so it runs over element ranges of
// the parameters on every core (ForEachRange) with the bytes of a
// serial pass. Each product is rounded before its add (float64(…)), so
// no architecture may fuse the pair into one multiply-add.
func (a *Adam) Step() {
	a.step++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	ForEachRange(a.params, 0, func(i, lo, hi int) {
		p := a.params[i]
		w, g := p.Value.Data[lo:hi], p.Grad.Data[lo:hi]
		m, v := a.m[i].Data[lo:hi], a.v[i].Data[lo:hi]
		for j, gj := range g {
			gf := float64(gj)
			mf := float64(a.Beta1*float64(m[j])) + float64((1-a.Beta1)*gf)
			vf := float64(a.Beta2*float64(v[j])) + float64((1-a.Beta2)*gf*gf)
			m[j] = float32(mf)
			v[j] = float32(vf)
			w[j] -= float32(a.LR * (mf / bc1) / (math.Sqrt(vf/bc2) + a.Eps))
		}
		clear(g)
	})
	for _, p := range a.params {
		p.version++
	}
}

// rangeChunk is the number of elements one ForEachRange task covers:
// 128 KiB of each float32 array the pass streams, enough to dwarf a
// task's dispatch and few enough that the cores finish together.
const rangeChunk = 1 << 15

// ForEachRange runs fn over every element of params, laid end to end
// and cut into rangeChunk-element tasks on a par pool of width workers
// (0 selects GOMAXPROCS): fn(i, lo, hi) handles elements [lo, hi) of
// params[i], and every element is handed to exactly one call. Calls
// run concurrently, so fn must write only the ranges it is given. It
// is for elementwise passes over parameters (an optimiser step, a
// gradient reduction), whose bytes do not depend on the cut.
func ForEachRange(params []*Param, workers int, fn func(i, lo, hi int)) {
	total := 0
	for _, p := range params {
		total += p.Value.Len()
	}
	tasks := (total + rangeChunk - 1) / rangeChunk
	err := par.New(workers).Run(context.Background(), tasks, func(_ context.Context, t int) error {
		lo, hi := t*rangeChunk, min((t+1)*rangeChunk, total)
		base := 0
		for i, p := range params {
			n := p.Value.Len()
			if from, to := max(lo, base), min(hi, base+n); from < to {
				fn(i, from-base, to-base)
			}
			if base += n; base >= hi {
				break
			}
		}
		return nil
	})
	// Tasks return no errors, so err can only be a panic the pool
	// caught; re-raise it on the caller as a serial pass would.
	mustValidShape(err == nil, "nn: element range task: %v", err)
}
