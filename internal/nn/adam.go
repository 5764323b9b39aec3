package nn

import (
	"fmt"
	"math"

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
// them.
func (a *Adam) Step() {
	a.step++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for i, p := range a.params {
		m, v := a.m[i], a.v[i]
		for j, g := range p.Grad.Data {
			gf := float64(g)
			mf := a.Beta1*float64(m.Data[j]) + (1-a.Beta1)*gf
			vf := a.Beta2*float64(v.Data[j]) + (1-a.Beta2)*gf*gf
			m.Data[j] = float32(mf)
			v.Data[j] = float32(vf)
			p.Value.Data[j] -= float32(a.LR * (mf / bc1) / (math.Sqrt(vf/bc2) + a.Eps))
		}
		p.version++
		p.Grad.Zero()
	}
}
