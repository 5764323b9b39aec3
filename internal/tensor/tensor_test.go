package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndShape(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 || x.Dim(0) != 2 || x.Dim(2) != 4 {
		t.Fatalf("shape handling broken: %v len %d", x.Shape, x.Len())
	}
}

func TestFromSliceValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice accepted wrong length")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestReshapeAndInfer(t *testing.T) {
	x := New(2, 6)
	y := x.Reshape(3, 4)
	if y.Dim(0) != 3 || y.Dim(1) != 4 {
		t.Fatalf("reshape shape %v", y.Shape)
	}
	y.Data[0] = 5
	if x.Data[0] != 5 {
		t.Fatal("reshape must share backing data")
	}
	z := x.Reshape(4, -1)
	if z.Dim(1) != 3 {
		t.Fatalf("inferred dim = %d", z.Dim(1))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid reshape accepted")
		}
	}()
	x.Reshape(5, 5)
}

func TestCloneIndependent(t *testing.T) {
	x := New(4)
	x.Fill(2)
	y := x.Clone()
	y.Data[0] = 9
	if x.Data[0] != 2 {
		t.Fatal("clone shares data")
	}
}

func TestElementwiseOps(t *testing.T) {
	x := FromSlice([]float32{1, -2, 3}, 3)
	y := FromSlice([]float32{10, 20, 30}, 3)
	x.AddInPlace(y)
	if x.Data[1] != 18 {
		t.Fatalf("AddInPlace: %v", x.Data)
	}
	x.Scale(0.5)
	if x.Data[0] != 5.5 {
		t.Fatalf("Scale: %v", x.Data)
	}
	if got := x.Sum(); math.Abs(got-(5.5+9+16.5)) > 1e-6 {
		t.Fatalf("Sum = %v", got)
	}
	x.Zero()
	if x.Sum() != 0 {
		t.Fatal("Zero failed")
	}
	x.Data[1] = -7
	if x.MaxAbs() != 7 {
		t.Fatalf("MaxAbs = %v", x.MaxAbs())
	}
}

func TestIsFinite(t *testing.T) {
	x := New(3)
	if !x.IsFinite() {
		t.Fatal("zeros not finite")
	}
	x.Data[1] = float32(math.NaN())
	if x.IsFinite() {
		t.Fatal("NaN undetected")
	}
	x.Data[1] = float32(math.Inf(1))
	if x.IsFinite() {
		t.Fatal("Inf undetected")
	}
}

func TestRandNormalMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := New(10000)
	x.RandNormal(rng, 1.0, 2.0)
	mean := x.Sum() / 10000
	var varsum float64
	for _, v := range x.Data {
		d := float64(v) - mean
		varsum += d * d
	}
	std := math.Sqrt(varsum / 10000)
	if math.Abs(mean-1.0) > 0.1 || math.Abs(std-2.0) > 0.1 {
		t.Fatalf("mean=%v std=%v", mean, std)
	}
}

func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(a.Data[i*k+p]) * float64(b.Data[p*n+j])
			}
			c.Data[i*n+j] = float32(s)
		}
	}
	return c
}

func randT(rng *rand.Rand, shape ...int) *Tensor {
	x := New(shape...)
	x.RandNormal(rng, 0, 1)
	return x
}

func tensorsClose(t *testing.T, got, want *Tensor, tol float64) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("length %d vs %d", got.Len(), want.Len())
	}
	for i := range got.Data {
		if math.Abs(float64(got.Data[i]-want.Data[i])) > tol {
			t.Fatalf("element %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 4, 5}, {17, 9, 23}, {64, 32, 48}} {
		a := randT(rng, dims[0], dims[1])
		b := randT(rng, dims[1], dims[2])
		tensorsClose(t, MatMul(a, b), naiveMatMul(a, b), 1e-3)
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch accepted")
		}
	}()
	MatMul(New(2, 3), New(4, 5))
}

func TestConvOutSizes(t *testing.T) {
	// Pix2pix down block: kernel 4, stride 2, pad 1 halves the size.
	if got := ConvOutSize(64, 4, 2, 1); got != 32 {
		t.Fatalf("ConvOutSize = %d, want 32", got)
	}
	// And its transpose doubles it back.
	if got := ConvTransposeOutSize(32, 4, 2, 1); got != 64 {
		t.Fatalf("ConvTransposeOutSize = %d, want 64", got)
	}
	if got := ConvOutSize(5, 3, 1, 1); got != 5 {
		t.Fatalf("same-conv = %d, want 5", got)
	}
	// A kernel wider than the padded input fits nowhere: no output,
	// not the one window hanging off the border that truncating the
	// negative span toward zero used to count.
	if got := ConvOutSize(1, 4, 2, 1); got != 0 {
		t.Fatalf("ConvOutSize(1, 4, 2, 1) = %d, want 0", got)
	}
	if got := ConvOutSize(2, 5, 2, 1); got != 0 {
		t.Fatalf("ConvOutSize(2, 5, 2, 1) = %d, want 0", got)
	}
}

func TestIm2colKnownValues(t *testing.T) {
	// 1 channel 3x3 image, kernel 2, stride 1, pad 0 -> cols [4, 4].
	x := []float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}
	cols := make([]float32, 4*4)
	Im2col(cols, x, 1, 3, 3, 2, 1, 0)
	// Row 0 is the top-left tap across the 4 output positions.
	want := []float32{
		1, 2, 4, 5, // ky=0,kx=0
		2, 3, 5, 6, // ky=0,kx=1
		4, 5, 7, 8, // ky=1,kx=0
		5, 6, 8, 9, // ky=1,kx=1
	}
	for i := range want {
		if cols[i] != want[i] {
			t.Fatalf("cols[%d] = %v, want %v\nall: %v", i, cols[i], want[i], cols)
		}
	}
}

func TestIm2colPaddingZeros(t *testing.T) {
	x := []float32{1, 2, 3, 4} // 1x2x2
	outHW := ConvOutSize(2, 3, 1, 1) * ConvOutSize(2, 3, 1, 1)
	cols := make([]float32, 9*outHW)
	for i := range cols {
		cols[i] = 99 // ensure padding overwrites
	}
	Im2col(cols, x, 1, 2, 2, 3, 1, 1)
	// Top-left tap of output (0,0) reads x[-1,-1] = padding = 0.
	if cols[0] != 0 {
		t.Fatalf("padding tap = %v, want 0", cols[0])
	}
}

// Property: Col2im is the exact adjoint of Im2col:
// <Im2col(x), y> == <x, Col2im(y)> for all x, y.
func TestIm2colCol2imAdjoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, h, w := 1+rng.Intn(3), 4+rng.Intn(5), 4+rng.Intn(5)
		kernel := 2 + rng.Intn(3)
		stride := 1 + rng.Intn(2)
		pad := rng.Intn(2)
		outHW := ConvOutSize(h, kernel, stride, pad) * ConvOutSize(w, kernel, stride, pad)
		if outHW <= 0 {
			return true
		}
		x := make([]float32, c*h*w)
		y := make([]float32, c*kernel*kernel*outHW)
		for i := range x {
			x[i] = rng.Float32() - 0.5
		}
		for i := range y {
			y[i] = rng.Float32() - 0.5
		}
		cols := make([]float32, len(y))
		Im2col(cols, x, c, h, w, kernel, stride, pad)
		var lhs float64
		for i := range cols {
			lhs += float64(cols[i]) * float64(y[i])
		}
		back := make([]float32, len(x))
		Col2im(back, y, c, h, w, kernel, stride, pad)
		var rhs float64
		for i := range back {
			rhs += float64(back[i]) * float64(x[i])
		}
		return math.Abs(lhs-rhs) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGemmLargeParallelConsistency(t *testing.T) {
	// The tiled parallel path must agree with the reference kernel —
	// exactly, not approximately (see gemm_diff_test.go for the full
	// adversarial sweep).
	rng := rand.New(rand.NewSource(5))
	a, b := randT(rng, 150, 70), randT(rng, 70, 300) // 3×2 tiles, above gemmParallelMin
	got := MatMul(a, b)
	want := New(150, 300)
	gemmRef(want.Data, a.Data, b.Data, 150, 70, 300, false)
	tensorsClose(t, got, want, 0)
}
