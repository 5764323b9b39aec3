package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// The differential GEMM suite: the blocked driver must match the naive
// gemmRef triple loop EXACTLY — same float32 bits, not "close" — with
// every micro-kernel the host can run, for every adversarial shape,
// both accumulate modes, any worker count, and inputs that hold signed
// zeros, infinities, NaNs and denormals. This is the same discipline as
// the repo's parallel-equivalence goldens: determinism is bit-equality,
// never tolerance.

// availableKernels returns gemmBlocked's avx2 argument for every
// micro-kernel this host can run: the portable one always, the
// assembly one where CPUID offers it.
func availableKernels() []bool {
	if hasAVX2 {
		return []bool{false, true}
	}
	return []bool{false}
}

// forEachKernel runs fn as one subtest per micro-kernel and skips the
// assembly kernel's subtest on hosts that cannot run it.
func forEachKernel(t *testing.T, fn func(t *testing.T, avx2 bool)) {
	t.Run("portable", func(t *testing.T) { fn(t, false) })
	t.Run("avx2", func(t *testing.T) {
		if !hasAVX2 {
			t.Skip("no AVX2 micro-kernel on this host")
		}
		fn(t, true)
	})
}

// modeOf is the gemmMode of GemmOp's accumulate flag.
func modeOf(accumulate bool) gemmMode {
	if accumulate {
		return gemmAccumulate
	}
	return gemmSet
}

// gemmMats runs the blocked driver over two dense operands, the shape
// of the plain Gemm entry point.
func gemmMats(avx2 bool, c, a, b []float32, m, k, n int, accumulate bool, workers int) {
	am, bm := Mat(a, m, k), Mat(b, k, n)
	gemmBlocked(avx2, c, &am, &bm, modeOf(accumulate), workers)
}

// addAfterRef is gemmAddAfter's definition: the product gemmRef forms
// from zero in scratch, then added to c element by element.
func addAfterRef(c, a, b []float32, m, k, n int) {
	s := make([]float32, m*n)
	gemmRef(s, a, b, m, k, n, false)
	for i, v := range s {
		c[i] += v
	}
}

// posInf is a variable so that hostNaN is computed by the hardware, not
// folded by the compiler.
var posInf = float32(math.Inf(1))

// hostNaN is the quiet NaN this hardware generates for an invalid
// operation. It is the one NaN the inputs hold, because which of two
// DIFFERENT NaNs survives a multiply or an add depends on operand order,
// and for a commutative operation in Go — gemmRef's included — that is
// the register allocator's choice, not the source's. With a single NaN
// in play every result bit is pinned.
var hostNaN = posInf - posInf

// specials are the values ordinary random data never holds.
// 1e-20·1e-25 is a product that only exists as a denormal, so a product
// that skipped its rounding (an FMA) shows.
var specials = []float32{
	float32(math.Copysign(0, -1)), 0, posInf, -posInf, hostNaN,
	1e-40, -3e-42, 1e-20, -1e-25, math.MaxFloat32, math.SmallestNonzeroFloat32,
}

// fillNormal fills v with standard normal variates.
func fillNormal(rng *rand.Rand, v []float32) {
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
}

// fillAdversarial fills v with normal variates and then overwrites a
// few positions with specials: few enough that most of a large output
// stays finite and is still compared digit for digit.
func fillAdversarial(rng *rand.Rand, v []float32) {
	fillNormal(rng, v)
	for i := 0; i < len(v) && i < 6; i++ {
		v[rng.Intn(len(v))] = specials[rng.Intn(len(specials))]
	}
}

// transposed returns the transpose of the row-major rows×cols matrix
// src as a new cols×rows matrix.
func transposed(src []float32, rows, cols int) []float32 {
	dst := make([]float32, len(src))
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			dst[j*rows+i] = src[i*cols+j]
		}
	}
	return dst
}

// assertBitsEqual fails on the first element whose float32 bit pattern
// differs (math.Float32bits distinguishes -0 from +0 and NaN payloads,
// which a plain == would not).
func assertBitsEqual(t *testing.T, got, want []float32, label string) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d: got %v (bits %08x), want %v (bits %08x)",
				label, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestGemmBlockedMatchesRefExactly is the table: every m, n and k on
// either side of its micro-tile (4×16), tile (64×256) and depth-block
// (256) boundary, plus one size of three blocks with a ragged last one
// (so a third tile's offset and a third depth block's accumulate load
// are exercised), crossed in full.
func TestGemmBlockedMatchesRefExactly(t *testing.T) {
	ms := []int{1, 3, 4, 5, gemmMC, gemmMC + 1, 2*gemmMC + 3}
	ns := []int{1, gemmNR - 1, gemmNR, gemmNR + 1, gemmNC, gemmNC + 1, 2*gemmNC + 3}
	ks := []int{0, 1, gemmKC - 1, gemmKC, gemmKC + 1, 2*gemmKC + 3}
	forEachKernel(t, func(t *testing.T, avx2 bool) {
		rng := rand.New(rand.NewSource(90))
		for _, m := range ms {
			for _, n := range ns {
				for _, k := range ks {
					a := make([]float32, m*k)
					b := make([]float32, k*n)
					c0 := make([]float32, m*n)
					fillAdversarial(rng, a)
					fillAdversarial(rng, b)
					fillAdversarial(rng, c0)
					for _, accumulate := range []bool{false, true} {
						want := append([]float32(nil), c0...)
						gemmRef(want, a, b, m, k, n, accumulate)
						for _, workers := range []int{1, 8} {
							got := append([]float32(nil), c0...)
							gemmMats(avx2, got, a, b, m, k, n, accumulate, workers)
							assertBitsEqual(t, got, want, fmt.Sprintf("gemm %dx%dx%d accumulate=%v j%d", m, k, n, accumulate, workers))
						}
					}
				}
			}
		}
	})
}

// TestGemmBlockedZeroK pins the k==0 edge: overwrite mode must zero the
// output (an empty sum), accumulate mode must leave it untouched.
func TestGemmBlockedZeroK(t *testing.T) {
	c := []float32{1, 2, 3, 4}
	gemmMats(hasAVX2, c, nil, nil, 2, 0, 2, true, 1)
	assertBitsEqual(t, c, []float32{1, 2, 3, 4}, "k=0 accumulate")
	gemmMats(hasAVX2, c, nil, nil, 2, 0, 2, false, 1)
	assertBitsEqual(t, c, []float32{0, 0, 0, 0}, "k=0 overwrite")
}

// TestGemmAddAfterMatchesScratchThenAdd holds the add-after epilogue
// to its definition, a product formed from zero in scratch and then
// added to C, bit for bit: on edge and whole micro-tiles, at the depth
// of one block (the epilogue) and one past it (the scratch fallback),
// under every micro-kernel, with one worker and with tiles fanned out
// on a shape above gemmParallelMin. A zero-depth product must leave C
// as it was, signed zeros included.
func TestGemmAddAfterMatchesScratchThenAdd(t *testing.T) {
	shapes := [][3]int{
		{1, 1, 1}, {3, 5, gemmNR - 1}, {gemmMR, 7, gemmNR}, {gemmMR + 1, 8, gemmNR + 1},
		{gemmMC + 1, gemmKC, gemmNC + 1}, {gemmMC + 1, gemmKC + 1, gemmNC + 1}, {5, 2*gemmKC + 3, 19},
		{2*gemmMC + 3, gemmKC, 2*gemmNC + 3}, // m·n·k above gemmParallelMin: tiles on the pool
	}
	forEachKernel(t, func(t *testing.T, avx2 bool) {
		rng := rand.New(rand.NewSource(94))
		for _, sh := range shapes {
			m, k, n := sh[0], sh[1], sh[2]
			a, b, c0 := make([]float32, m*k), make([]float32, k*n), make([]float32, m*n)
			fillAdversarial(rng, a)
			fillAdversarial(rng, b)
			fillAdversarial(rng, c0)
			want := append([]float32(nil), c0...)
			addAfterRef(want, a, b, m, k, n)
			am, bm := Mat(a, m, k), Mat(b, k, n)
			for _, workers := range []int{1, 8} {
				got := append([]float32(nil), c0...)
				gemmBlocked(avx2, got, &am, &bm, gemmAddAfter, workers)
				assertBitsEqual(t, got, want, fmt.Sprintf("add-after %dx%dx%d j%d", m, k, n, workers))
			}
		}
		c := []float32{float32(math.Copysign(0, -1)), 2, hostNaN, 4}
		want := append([]float32(nil), c...)
		am, bm := Mat(nil, 2, 0), Mat(nil, 0, 2)
		gemmBlocked(avx2, c, &am, &bm, gemmAddAfter, 1)
		assertBitsEqual(t, c, want, "k=0 add-after")
	})
}

// TestGemmNoZeroSkip guards a subtle determinism property: the kernel
// must NOT skip zero A values (the pre-rewrite kernel did). Skipping
// changes nothing for finite data but diverges from gemmRef when B
// holds infinities (0·∞ = NaN), and the differential contract is exact
// agreement on everything.
func TestGemmNoZeroSkip(t *testing.T) {
	a := []float32{0, 1}
	b := []float32{float32(math.Inf(1)), 2, 3, 4}
	want := make([]float32, 2)
	gemmRef(want, a, b, 1, 2, 2, false)
	for _, avx2 := range availableKernels() {
		got := make([]float32, 2)
		gemmMats(avx2, got, a, b, 1, 2, 2, false, 1)
		assertBitsEqual(t, got, want, "zero-times-inf")
		if !math.IsNaN(float64(got[0])) {
			t.Fatalf("0*Inf column should be NaN, got %v", got[0])
		}
	}
}

// TestMatMulATBAndABT holds the two transposed products to gemmRef on
// an explicitly transposed operand, bit for bit: they are the same
// driver reading its operand through Operand.T, not a second summation
// order.
func TestMatMulATBAndABT(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for _, sh := range [][3]int{{1, 1, 1}, {5, 17, 3}, {gemmMC + 1, gemmKC + 1, gemmNR + 1}, {33, 300, 70},
		{2*gemmMC + 3, 2*gemmKC + 3, 2*gemmNC + 3}} {
		m, k, n := sh[0], sh[1], sh[2]
		a, b := New(m, k), New(k, n)
		fillAdversarial(rng, a.Data)
		fillAdversarial(rng, b.Data)
		want := New(m, n)
		gemmRef(want.Data, a.Data, b.Data, m, k, n, false)
		label := fmt.Sprintf("%dx%dx%d", m, k, n)
		at, bt := FromSlice(transposed(a.Data, m, k), k, m), FromSlice(transposed(b.Data, k, n), n, k)
		assertBitsEqual(t, MatMulATB(at, b).Data, want.Data, "ATB "+label)
		assertBitsEqual(t, MatMulABT(a, bt).Data, want.Data, "ABT "+label)

		// The same products under every micro-kernel, with either or
		// both operands read through their transpose.
		aT, bT := Mat(at.Data, k, m).T(), Mat(bt.Data, n, k).T()
		aD, bD := Mat(a.Data, m, k), Mat(b.Data, k, n)
		for _, avx2 := range availableKernels() {
			for _, ops := range [][2]*Operand{{&aT, &bD}, {&aD, &bT}, {&aT, &bT}} {
				got := make([]float32, m*n)
				gemmBlocked(avx2, got, ops[0], ops[1], gemmSet, 3)
				assertBitsEqual(t, got, want.Data, fmt.Sprintf("transposed operands %s avx2=%v", label, avx2))
			}
		}
	}
}

// TestPackedAMatchesPacking holds a GEMM whose A operand was packed
// ahead (Operand.PackedA) to gemmRef bit for bit, for a dense and a
// transposed A, on every m and k around the panel, tile and depth-block
// boundaries (so the pack's block offsets are exercised in both
// directions), in both accumulate modes, with one and many workers.
// It also pins that T drops a pack: the transposed operand must not
// read the untransposed panels.
func TestPackedAMatchesPacking(t *testing.T) {
	ms := []int{1, 3, 4, 5, gemmMC, gemmMC + 1, 2*gemmMC + 3}
	ks := []int{1, gemmKC - 1, gemmKC, gemmKC + 1, 2*gemmKC + 3}
	const n = gemmNR + 3
	forEachKernel(t, func(t *testing.T, avx2 bool) {
		rng := rand.New(rand.NewSource(93))
		for _, m := range ms {
			for _, k := range ks {
				a, b, c0 := make([]float32, m*k), make([]float32, k*n), make([]float32, m*n)
				fillAdversarial(rng, a)
				fillAdversarial(rng, b)
				fillAdversarial(rng, c0)
				at := transposed(a, m, k)
				bm := Mat(b, k, n)
				for _, accumulate := range []bool{false, true} {
					want := append([]float32(nil), c0...)
					gemmRef(want, a, b, m, k, n, accumulate)
					for _, src := range []Operand{Mat(a, m, k), Mat(at, k, m).T()} {
						packed := src.PackedA()
						for _, workers := range []int{1, 8} {
							got := append([]float32(nil), c0...)
							gemmBlocked(avx2, got, &packed, &bm, modeOf(accumulate), workers)
							assertBitsEqual(t, got, want, fmt.Sprintf("packed A %dx%dx%d accumulate=%v j%d", m, k, n, accumulate, workers))
						}
					}
				}
				// The transpose of a packed k×m operand is the m×k A.
				flipped := Mat(at, k, m).PackedA().T()
				got := make([]float32, m*n)
				gemmBlocked(avx2, got, &flipped, &bm, gemmSet, 1)
				want := make([]float32, m*n)
				gemmRef(want, a, b, m, k, n, false)
				assertBitsEqual(t, got, want, fmt.Sprintf("T of a pack %dx%dx%d", m, k, n))
			}
		}
	})
}

// TestGemmQ8MatchesScaledInt pins the int8 kernel against a directly
// computed int32 reference: integer accumulation is exact, so equality
// is bitwise regardless of worker count.
func TestGemmQ8MatchesScaledInt(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, sh := range [][3]int{{1, 1, 1}, {3, 7, 2}, {5, 300, 33}, {67, 19, 41}} {
		m, k, n := sh[0], sh[1], sh[2]
		a := make([]int8, m*k)
		b := make([]int8, k*n)
		for i := range a {
			a[i] = int8(rng.Intn(255) - 127)
		}
		for i := range b {
			b[i] = int8(rng.Intn(255) - 127)
		}
		const scale = 0.03125
		want := make([]float32, m*n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s int32
				for p := 0; p < k; p++ {
					s += int32(a[i*k+p]) * int32(b[p*n+j])
				}
				want[i*n+j] = scale * float32(s)
			}
		}
		for _, workers := range []int{1, 8} {
			got := make([]float32, m*n)
			gemmQ8(got, a, b, m, k, n, scale, false, workers)
			assertBitsEqual(t, got, want, fmt.Sprintf("q8 %dx%dx%d j%d", m, k, n, workers))
		}
	}
}

// TestQuantizeSymmetricRoundTrip checks the quantizer's contract: scale
// recovers the magnitudes within half a step, the max-abs element maps
// to ±127, and the degenerate inputs take their documented fallbacks.
func TestQuantizeSymmetricRoundTrip(t *testing.T) {
	src := []float32{-1, 0.5, 0.25, 1.27, -0.003}
	dst := make([]int8, len(src))
	scale := QuantizeSymmetric(dst, src)
	if dst[3] != 127 {
		t.Fatalf("max-abs element quantized to %d, want 127", dst[3])
	}
	for i, v := range src {
		back := float32(dst[i]) * scale
		if math.Abs(float64(back-v)) > float64(scale)/2+1e-7 {
			t.Fatalf("element %d: %v dequantizes to %v (scale %v)", i, v, back, scale)
		}
	}

	zeros := make([]float32, 4)
	qz := make([]int8, 4)
	if s := QuantizeSymmetric(qz, zeros); s != 1 {
		t.Fatalf("all-zero scale = %v, want 1", s)
	}
	for _, q := range qz {
		if q != 0 {
			t.Fatalf("all-zero source quantized to %v", qz)
		}
	}

	weird := []float32{float32(math.NaN()), float32(math.Inf(1)), -2}
	qw := make([]int8, 3)
	QuantizeSymmetric(qw, weird)
	if qw[0] != 0 {
		t.Fatalf("NaN quantized to %d, want 0", qw[0])
	}
	if qw[1] != 127 {
		t.Fatalf("+Inf quantized to %d, want 127", qw[1])
	}
}

// TestQuantizeTensorT pins the pre-transposed weight layout Dense and
// ConvTranspose2d rely on: q[j*rows+i] corresponds to t[i*cols+j].
func TestQuantizeTensorT(t *testing.T) {
	w := FromSlice([]float32{1, -2, 3, -4, 5, -6}, 2, 3)
	q := QuantizeTensorT(w)
	if q.Rows != 3 || q.Cols != 2 {
		t.Fatalf("transposed dims %dx%d, want 3x2", q.Rows, q.Cols)
	}
	qd := QuantizeTensor(w)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if q.Data[j*2+i] != qd.Data[i*3+j] {
				t.Fatalf("transpose layout broken at (%d,%d)", i, j)
			}
		}
	}
	if q.Scale != qd.Scale {
		t.Fatalf("scales differ: %v vs %v", q.Scale, qd.Scale)
	}
}

// benchGemm times fn on size³ and reports GFLOP/s.
func benchGemm(b *testing.B, size int, fn func(c, a, bb []float32, m, k, n int)) {
	rng := rand.New(rand.NewSource(7))
	a := make([]float32, size*size)
	bb := make([]float32, size*size)
	c := make([]float32, size*size)
	fillNormal(rng, a)
	fillNormal(rng, bb)
	flops := 2 * float64(size) * float64(size) * float64(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(c, a, bb, size, size, size)
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// benchEachKernel runs bench once per available micro-kernel, so the
// portable kernel keeps its own number on hosts that never select it.
func benchEachKernel(b *testing.B, bench func(b *testing.B, avx2 bool)) {
	for _, avx2 := range availableKernels() {
		name := "portable"
		if avx2 {
			name = "avx2"
		}
		b.Run(name, func(b *testing.B) { bench(b, avx2) })
	}
}

func BenchmarkGemmRef512(b *testing.B) {
	benchGemm(b, 512, func(c, a, bb []float32, m, k, n int) {
		gemmRef(c, a, bb, m, k, n, false)
	})
}

func BenchmarkGemmBlocked512(b *testing.B) {
	benchEachKernel(b, func(b *testing.B, avx2 bool) {
		benchGemm(b, 512, func(c, a, bb []float32, m, k, n int) {
			gemmMats(avx2, c, a, bb, m, k, n, false, 1)
		})
	})
}

func BenchmarkGemmBlockedParallel512(b *testing.B) {
	benchEachKernel(b, func(b *testing.B, avx2 bool) {
		benchGemm(b, 512, func(c, a, bb []float32, m, k, n int) {
			gemmMats(avx2, c, a, bb, m, k, n, false, runtime.GOMAXPROCS(0))
		})
	})
}

func BenchmarkGemmQ8_512(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	const size = 512
	a := make([]int8, size*size)
	bb := make([]int8, size*size)
	c := make([]float32, size*size)
	for i := range a {
		a[i] = int8(rng.Intn(255) - 127)
		bb[i] = int8(rng.Intn(255) - 127)
	}
	flops := 2 * float64(size) * float64(size) * float64(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gemmQ8(c, a, bb, size, size, size, 0.01, false, 1)
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GOP/s")
}
