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
// zeros, infinities, NaNs and denormals): exact bit equality for the
// float32 path (the determinism contract), tolerance-bounded agreement
// for the int8 path on finite data
// (quantization is lossy by design, but its integer core is exact, so
// the only slack needed is the final float32 scale multiply).
func FuzzGemmBlockedVsRef(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4), uint8(5), false)
	f.Add(int64(2), uint8(65), uint8(31), uint8(9), true)
	f.Add(int64(3), uint8(1), uint8(255), uint8(1), false)
	f.Add(int64(4), uint8(64), uint8(0), uint8(64), true)
	f.Fuzz(func(t *testing.T, seed int64, mr, kr, nr uint8, accumulate bool) {
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
		for _, avx2 := range availableKernels() {
			for _, workers := range []int{1, 5} {
				got := append([]float32(nil), c0...)
				gemmBlocked(avx2, got, a, b, m, k, n, accumulate, workers)
				assertBitsEqual(t, got, want, fmt.Sprintf("float32 %dx%dx%d acc=%v avx2=%v j%d", m, k, n, accumulate, avx2, workers))
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
