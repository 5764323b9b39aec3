// Package tensor provides the float32 n-dimensional array and the dense
// linear algebra kernels (GEMM, im2col/col2im) underpinning the neural
// network stack. It is deliberately small: just what a convolutional
// GAN needs, implemented with cache-blocked loops so CPU-only training
// of the scaled-down CB-GAN finishes in minutes.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"cachebox/internal/obs"
)

// Tensor is a dense row-major float32 array with an explicit shape.
type Tensor struct {
	Shape []int
	Data  []float32
}

// mustValidShape is the package's single registered invariant helper:
// every deliberate crash point in tensor funnels through it, and
// cbx-lint's library-panic analyzer allowlists it by name. It panics
// with the formatted message when ok is false. Shape mismatches here
// are programmer errors (a malformed network graph), not runtime
// conditions a caller could recover from.
func mustValidShape(ok bool, format string, args ...any) {
	if !ok {
		panic(fmt.Sprintf(format, args...))
	}
}

// numel returns the element count implied by shape.
func numel(shape []int) int {
	n := 1
	for _, d := range shape {
		mustValidShape(d >= 0, "tensor: negative dimension in %v", shape)
		n *= d
	}
	return n
}

// New allocates a zero tensor of the given shape.
func New(shape ...int) *Tensor {
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, numel(shape))}
}

// FromSlice wraps data (without copying) in a tensor of the given
// shape; the lengths must agree.
func FromSlice(data []float32, shape ...int) *Tensor {
	mustValidShape(len(data) == numel(shape), "tensor: %d elements cannot take shape %v", len(data), shape)
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Len returns the element count.
func (t *Tensor) Len() int { return len(t.Data) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Reshape returns a view with a new shape sharing the same backing
// data. One dimension may be -1 to be inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	out := append([]int(nil), shape...)
	infer := -1
	known := 1
	for i, d := range out {
		if d == -1 {
			mustValidShape(infer < 0, "tensor: multiple inferred dimensions")
			infer = i
		} else {
			known *= d
		}
	}
	if infer >= 0 {
		mustValidShape(known != 0 && len(t.Data)%known == 0,
			"tensor: cannot infer dimension reshaping %v to %v", t.Shape, shape)
		out[infer] = len(t.Data) / known
	}
	mustValidShape(numel(out) == len(t.Data), "tensor: cannot reshape %v to %v", t.Shape, shape)
	return &Tensor{Shape: out, Data: t.Data}
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// AddInPlace accumulates o into t elementwise.
func (t *Tensor) AddInPlace(o *Tensor) {
	mustValidShape(len(t.Data) == len(o.Data), "tensor: AddInPlace size mismatch")
	for i, v := range o.Data {
		t.Data[i] += v
	}
}

// Scale multiplies every element by f.
func (t *Tensor) Scale(f float32) {
	for i := range t.Data {
		t.Data[i] *= f
	}
}

// Sum returns the total of all elements (in float64 for stability).
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// MaxAbs returns the largest absolute element value.
func (t *Tensor) MaxAbs() float32 {
	var m float32
	for _, v := range t.Data {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// RandNormal fills the tensor with N(mean, std) values from rng.
func (t *Tensor) RandNormal(rng *rand.Rand, mean, std float64) {
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64()*std + mean)
	}
}

// IsFinite reports whether every element is finite.
func (t *Tensor) IsFinite() bool {
	for _, v := range t.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return false
		}
	}
	return true
}

// MatMul computes C = A×B for A [m,k] and B [k,n], writing into a new
// [m,n] tensor. The kernel is cache-blocked over k and parallelised
// over row bands when multiple CPUs are available.
func MatMul(a, b *Tensor) *Tensor {
	mustValidShape(len(a.Shape) == 2 && len(b.Shape) == 2 && a.Shape[1] == b.Shape[0],
		"tensor: MatMul shapes %v x %v", a.Shape, b.Shape)
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(m, n)
	Gemm(c.Data, a.Data, b.Data, m, k, n, false)
	return c
}

// Gemm is the raw kernel: C[m,n] (+)= A[m,k] × B[k,n], row-major.
// It is GemmOp over two dense operands.
func Gemm(c, a, b []float32, m, k, n int, accumulate bool) {
	GemmOp(c, Mat(a, m, k), Mat(b, k, n), accumulate)
}

// GemmOp computes C (+)= A×B for an m×k operand a and a k×n operand b
// into the row-major m×n c, packing each operand straight from its
// source (see Operand). It dispatches to the cache-blocked,
// goroutine-tiled driver in gemm_blocked.go with the host's fastest
// micro-kernel; results are bit-identical to gemmRef over the
// materialised operands, to the other micro-kernel and to any other
// worker count (see the determinism notes there). Durations feed the
// obs histogram sink (span name tensor.gemm) when a collector is
// installed; the timer is a value type, so the kernel never allocates
// for it.
func GemmOp(c []float32, a, b Operand, accumulate bool) {
	l := obs.StartLeaf("tensor.gemm")
	defer l.End()
	mode := gemmSet
	if accumulate {
		mode = gemmAccumulate
	}
	gemmBlocked(hasAVX2, c, &a, &b, mode, runtime.GOMAXPROCS(0))
}

// GemmAddOp adds the product A×B, formed on its own, to c:
// c[i,j] += Σ_p A[i,p]·B[p,j], the sum taken from zero in depth order
// and rounded before the add. It is bit-identical to a GemmOp into
// scratch followed by an elementwise add, and up to one depth block
// (gemmKC) deep it needs no scratch: each micro-tile is added to c as
// it completes (gemmAddAfter). A zero-depth product leaves c as it is.
func GemmAddOp(c []float32, a, b Operand) {
	l := obs.StartLeaf("tensor.gemm")
	defer l.End()
	gemmBlocked(hasAVX2, c, &a, &b, gemmAddAfter, runtime.GOMAXPROCS(0))
}

// gemmRef is the naive triple loop the blocked kernel is differentially
// tested against: C[i,j] (+)= Σ_p A[i,p]·B[p,j] with every product
// rounded to float32 before the add (the same no-FMA discipline as the
// blocked kernel) and p strictly increasing. It is the semantic
// definition of Gemm; the blocked kernel must match it bit for bit.
func gemmRef(c, a, b []float32, m, k, n int, accumulate bool) {
	for i := 0; i < m; i++ {
		ci := c[i*n : (i+1)*n]
		ai := a[i*k : (i+1)*k]
		for j := 0; j < n; j++ {
			var s float32
			if accumulate {
				s = ci[j]
			}
			for p := 0; p < k; p++ {
				s += float32(ai[p] * b[p*n+j])
			}
			ci[j] = s
		}
	}
}

// MatMulATB computes C = Aᵀ×B for A [k,m], B [k,n] → C [m,n], used for
// weight gradients: the packer reads A through its transpose, so no
// transposed copy is made.
func MatMulATB(a, b *Tensor) *Tensor {
	mustValidShape(len(a.Shape) == 2 && len(b.Shape) == 2 && a.Shape[0] == b.Shape[0],
		"tensor: MatMulATB shapes %v x %v", a.Shape, b.Shape)
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(m, n)
	GemmOp(c.Data, Mat(a.Data, k, m).T(), Mat(b.Data, k, n), false)
	return c
}

// MatMulABT computes C = A×Bᵀ for A [m,k], B [n,k] → C [m,n], packing
// B through its transpose like MatMulATB's A.
func MatMulABT(a, b *Tensor) *Tensor {
	mustValidShape(len(a.Shape) == 2 && len(b.Shape) == 2 && a.Shape[1] == b.Shape[1],
		"tensor: MatMulABT shapes %v x %v", a.Shape, b.Shape)
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	c := New(m, n)
	GemmOp(c.Data, Mat(a.Data, m, k), Mat(b.Data, n, k).T(), false)
	return c
}
