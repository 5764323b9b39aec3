package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// FuzzGemmBlockedVsRef drives the blocked driver, under every
// micro-kernel the host can run, against gemmRef over random shapes and
// adversarial data (fillAdversarial: normal variates plus a few signed
// zeros, infinities, NaNs and denormals), with A and B each either
// dense or read through the transpose of a stored transposed copy, in
// the mode the accumulate flag picks and in the add-after mode (held to
// gemmRef into scratch plus an add, or to an untouched C at depth 0):
// exact bit equality for the float32 path (the determinism contract),
// tolerance-bounded agreement for the int8 path on finite data
// (quantization is lossy by design, but its integer core is exact, so
// the only slack needed is the final float32 scale multiply).
func FuzzGemmBlockedVsRef(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4), uint8(5), false, false, false)
	f.Add(int64(2), uint8(65), uint8(31), uint8(9), true, true, false)
	f.Add(int64(3), uint8(1), uint8(255), uint8(1), false, false, true)
	f.Add(int64(4), uint8(64), uint8(0), uint8(64), true, true, true)
	f.Fuzz(func(t *testing.T, seed int64, mr, kr, nr uint8, accumulate, transA, transB bool) {
		m := int(mr)%96 + 1
		k := int(kr) % 300 // 0 exercises the empty-sum edge
		n := int(nr)%96 + 1
		rng := rand.New(rand.NewSource(seed))
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		c0 := make([]float32, m*n)
		fillAdversarial(rng, a)
		fillAdversarial(rng, b)
		fillAdversarial(rng, c0)

		want := append([]float32(nil), c0...)
		gemmRef(want, a, b, m, k, n, accumulate)
		aop, bop := Mat(a, m, k), Mat(b, k, n)
		if transA {
			aop = Mat(transposed(a, m, k), k, m).T()
		}
		if transB {
			bop = Mat(transposed(b, k, n), n, k).T()
		}
		added := append([]float32(nil), c0...)
		if k > 0 {
			addAfterRef(added, a, b, m, k, n)
		}
		for _, avx2 := range availableKernels() {
			for _, workers := range []int{1, 5} {
				got := append([]float32(nil), c0...)
				gemmBlocked(avx2, got, &aop, &bop, modeOf(accumulate), workers)
				assertBitsEqual(t, got, want, fmt.Sprintf("float32 %dx%dx%d acc=%v transA=%v transB=%v avx2=%v j%d",
					m, k, n, accumulate, transA, transB, avx2, workers))
				got = append(got[:0], c0...)
				gemmBlocked(avx2, got, &aop, &bop, gemmAddAfter, workers)
				assertBitsEqual(t, got, added, fmt.Sprintf("add-after %dx%dx%d transA=%v transB=%v avx2=%v j%d",
					m, k, n, transA, transB, avx2, workers))
			}
		}

		if k == 0 {
			return
		}
		fillNormal(rng, a)
		fillNormal(rng, b)
		qa := make([]int8, len(a))
		qb := make([]int8, len(b))
		sa := QuantizeSymmetric(qa, a)
		sb := QuantizeSymmetric(qb, b)
		scale := sa * sb
		got := make([]float32, m*n)
		gemmQ8(got, qa, qb, m, k, n, scale, false, 3)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s int32
				for p := 0; p < k; p++ {
					s += int32(qa[i*k+p]) * int32(qb[p*n+j])
				}
				ref := float64(scale) * float64(s)
				diff := math.Abs(float64(got[i*n+j]) - ref)
				if diff > 1e-4*math.Max(1, math.Abs(ref)) {
					t.Fatalf("q8 %dx%dx%d: element (%d,%d): got %v want %v",
						m, k, n, i, j, got[i*n+j], ref)
				}
			}
		}
	})
}

// FuzzConvOperandVsIm2col holds the lowered convolution to the
// materialised one, bit for bit, under every micro-kernel: over a
// random batch (n, c, h, w in 1–9, kernel 1–5, stride 1–3, pad 0–2)
// of adversarial data, Im2colOperand over the bordered batch must
// multiply exactly like the matrix Im2colStrided writes, used as B, as
// Bᵀ, as A and as Aᵀ, and Col2imBatch must scatter exactly like
// Col2imStrided, into a zero batch and into one already holding values.
func FuzzConvOperandVsIm2col(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3), uint8(8), uint8(8), uint8(4), uint8(2), uint8(1), uint8(5))
	f.Add(int64(2), uint8(1), uint8(1), uint8(5), uint8(7), uint8(3), uint8(1), uint8(1), uint8(17))
	f.Add(int64(3), uint8(3), uint8(2), uint8(9), uint8(4), uint8(1), uint8(3), uint8(0), uint8(1))
	f.Add(int64(4), uint8(0), uint8(4), uint8(1), uint8(1), uint8(5), uint8(2), uint8(2), uint8(8))
	// Stride 1 with a row of 11 outputs: the first B panel wraps into
	// the next output row, 16 offsets spanning 17 elements, and must be
	// gathered, not copied.
	f.Add(int64(5), uint8(0), uint8(0), uint8(7), uint8(7), uint8(1), uint8(0), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nr, cr, hr, wr, kr, sr, pr, mr uint8) {
		n, c, h, w := int(nr)%9+1, int(cr)%9+1, int(hr)%9+1, int(wr)%9+1
		pad := int(pr) % 3
		stride := int(sr)%3 + 1
		kernel := min(int(kr)%5+1, h+2*pad, w+2*pad)
		m := int(mr)%20 + 1
		hp, wp := h+2*pad, w+2*pad
		outHW := ConvOutSize(h, kernel, stride, pad) * ConvOutSize(w, kernel, stride, pad)
		rows, cols := c*kernel*kernel, n*outHW
		rng := rand.New(rand.NewSource(seed))

		x := make([]float32, n*c*h*w)
		fillAdversarial(rng, x)
		xp := make([]float32, n*c*hp*wp)
		Pad(xp, x, n*c, h, w, pad)
		op := Im2colOperand(xp, n, c, hp, wp, kernel, stride)
		colMat := make([]float32, rows*cols)
		for img := 0; img < n; img++ {
			Im2colStrided(colMat, cols, img*outHW, x[img*c*h*w:(img+1)*c*h*w], c, h, w, kernel, stride, pad)
		}
		colMatT := transposed(colMat, rows, cols)

		dense := func(r, q int) Operand {
			v := make([]float32, r*q)
			fillAdversarial(rng, v)
			return Mat(v, r, q)
		}
		// Each product: the operands as the driver reads them, and the
		// same two operands materialised for gemmRef.
		type product struct {
			name   string
			a, b   Operand
			ra, rb []float32
		}
		a1, a2, b1, b2 := dense(m, rows), dense(m, cols), dense(cols, m), dense(rows, m)
		for _, pr := range []product{
			{"B", a1, op, a1.data, colMat},
			{"Bt", a2, op.T(), a2.data, colMatT},
			{"A", op, b1, colMat, b1.data},
			{"At", op.T(), b2, colMatT, b2.data},
		} {
			want := make([]float32, pr.a.rows*pr.b.cols)
			gemmRef(want, pr.ra, pr.rb, pr.a.rows, pr.a.cols, pr.b.cols, false)
			for _, avx2 := range availableKernels() {
				for _, workers := range []int{1, 5} {
					got := make([]float32, len(want))
					gemmBlocked(avx2, got, &pr.a, &pr.b, gemmSet, workers)
					assertBitsEqual(t, got, want, fmt.Sprintf("%s n%d c%d %dx%d k%d s%d p%d m%d avx2=%v j%d",
						pr.name, n, c, h, w, kernel, stride, pad, m, avx2, workers))
				}
			}
		}

		dcols := make([]float32, rows*cols)
		fillAdversarial(rng, dcols)
		x0 := make([]float32, len(x))
		fillAdversarial(rng, x0)
		for _, start := range [][]float32{make([]float32, len(x)), x0} {
			want := append([]float32(nil), start...)
			for img := 0; img < n; img++ {
				Col2imStrided(want[img*c*h*w:(img+1)*c*h*w], dcols, cols, img*outHW, c, h, w, kernel, stride, pad)
			}
			got := append([]float32(nil), start...)
			Col2imBatch(got, dcols, n, c, h, w, kernel, stride, pad)
			assertBitsEqual(t, got, want, fmt.Sprintf("col2im n%d c%d %dx%d k%d s%d p%d", n, c, h, w, kernel, stride, pad))
		}
	})
}

// TestConvKernelsDoNotAllocate: the conv lowering runs inside every
// conv layer call, so building the operand, packing from it and the
// batched col2im must not allocate once the arena is warm.
func TestConvKernelsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under -race, so arena leases allocate")
	}
	const n, c, h, w, k, s, p, oc = 2, 3, 9, 9, 4, 2, 1, 5
	rng := rand.New(rand.NewSource(14))
	x := make([]float32, n*c*h*w)
	fillNormal(rng, x)
	xp := make([]float32, n*c*(h+2*p)*(w+2*p))
	wt := make([]float32, oc*c*k*k)
	fillNormal(rng, wt)
	outHW := ConvOutSize(h, k, s, p) * ConvOutSize(w, k, s, p)
	y := make([]float32, oc*n*outHW)
	cols := make([]float32, c*k*k*n*outHW)
	run := func() {
		Pad(xp, x, n*c, h, w, p)
		op := Im2colOperand(xp, n, c, h+2*p, w+2*p, k, s)
		GemmOp(y, Mat(wt, oc, c*k*k), op, false)
		GemmOp(cols, Mat(wt, oc, c*k*k).T(), Mat(y, oc, n*outHW), false)
		Col2imBatch(x, cols, n, c, h, w, k, s, p)
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("%v allocations per conv round trip, want 0", allocs)
	}
}
