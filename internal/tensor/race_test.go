package tensor

import (
	"math/rand"
	"sync"
	"testing"
)

// TestGemmConcurrentCallers drives the Gemm worker fan-out from many
// goroutines at once under `go test -race`. The inputs are shared
// read-only across callers while each caller owns its output buffer —
// exactly the contract the tiled kernel must uphold while callers also
// compete for arena pack panels. The [96,48]×[48,256] operands make
// two tiles and keep m*n*k above gemmParallelMin, so the par-pool tile
// path is exercised, not the serial fallback.
func TestGemmConcurrentCallers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randT(rng, 96, 48)
	b := randT(rng, 48, 256)
	want := naiveMatMul(a, b)

	const callers = 8
	results := make([]*Tensor, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = MatMul(a, b)
		}(i)
	}
	wg.Wait()
	for i, got := range results {
		if got == nil {
			t.Fatalf("caller %d produced no result", i)
		}
		tensorsClose(t, got, want, 1e-3)
	}
}

// TestScratchArenaConcurrentHammer drives 32 concurrent Gemm callers
// (each spawning its own worker tiles, each tile leasing pack panels
// from the shared sync.Pool arena) plus int8 GEMMs leasing accumulator
// rows, all under -race. Every caller checks its result bit-for-bit
// against the reference, so any pool reuse that aliased a live buffer
// shows up as a wrong answer even when the race detector is off.
func TestScratchArenaConcurrentHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const m, k, n = 96, 48, 256 // two tiles, above gemmParallelMin: they run on the pool
	a := randT(rng, m, k)
	b := randT(rng, k, n)
	want := New(m, n)
	gemmRef(want.Data, a.Data, b.Data, m, k, n, false)

	qa := make([]int8, m*k)
	qb := make([]int8, k*n)
	sa := QuantizeSymmetric(qa, a.Data)
	sb := QuantizeSymmetric(qb, b.Data)
	qwant := make([]float32, m*n)
	gemmQ8(qwant, qa, qb, m, k, n, sa*sb, false, 1)

	const callers = 32
	const rounds = 4
	errs := make(chan string, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := make([]float32, m*n)
			qc := make([]float32, m*n)
			for r := 0; r < rounds; r++ {
				gemmMats(hasAVX2, c, a.Data, b.Data, m, k, n, false, 4)
				for i := range want.Data {
					if c[i] != want.Data[i] {
						errs <- "float32 result corrupted"
						return
					}
				}
				gemmQ8(qc, qa, qb, m, k, n, sa*sb, false, 4)
				for i := range qwant {
					if qc[i] != qwant[i] {
						errs <- "q8 result corrupted"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestGemmConcurrentAccumulate checks the accumulate=true path under
// the same contention: each caller repeatedly accumulates into its own
// buffer while sharing the operands.
func TestGemmConcurrentAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randT(rng, 80, 40)
	b := randT(rng, 40, 512) // two tiles, above gemmParallelMin
	base := naiveMatMul(a, b)
	want := New(80, 512)
	for i := range want.Data {
		want.Data[i] = 2 * base.Data[i]
	}

	const callers = 6
	results := make([]*Tensor, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := New(80, 512)
			Gemm(c.Data, a.Data, b.Data, 80, 40, 512, false)
			Gemm(c.Data, a.Data, b.Data, 80, 40, 512, true) // accumulate a second product
			results[i] = c
		}(i)
	}
	wg.Wait()
	for _, got := range results {
		tensorsClose(t, got, want, 2e-3)
	}
}
