package tensor

// hasAVX2 reports whether this host can run gemmMicroAVX2: the CPU has
// AVX2 and the OS saves the YMM registers across context switches. It
// is read from CPUID and XGETBV once at start-up and is the only thing
// that selects a micro-kernel.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	const (
		osxsave  = 1 << 27 // CPUID.1:ECX, XGETBV is usable
		avx      = 1 << 28 // CPUID.1:ECX
		avx2     = 1 << 5  // CPUID.7.0:EBX
		ymmState = 0b110   // XCR0: the OS saves XMM and YMM state
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xgetbv0()&ymmState != ymmState {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// gemmMicro runs one micro-tile with the assembly kernel when avx2 is
// set (callers pass hasAVX2; tests pass false as well, to hold the two
// kernels to each other) and with the portable kernel otherwise.
func gemmMicro(avx2 bool, c []float32, ldc int, ap, bp []float32, kc int, load bool) {
	if avx2 {
		gemmMicroAVX2(c, ldc, ap, bp, kc, load)
		return
	}
	gemmMicroGo(c, ldc, ap, bp, kc, load)
}

// gemmMicroAVX2 has gemmMicroGo's contract and its exact arithmetic:
// per depth step, VMULPS of the broadcast A value with each B half,
// then VADDPS into the accumulator — two roundings, never an FMA. It
// trusts its caller for bounds: len(ap) ≥ kc*gemmMR, len(bp) ≥
// kc*gemmNR and len(c) ≥ 3*ldc+gemmNR, which gemmTile's exact
// re-slicing guarantees.
//
//cbx:hotpath innermost GEMM micro-tile; runs millions of times per train step
//go:noescape
func gemmMicroAVX2(c []float32, ldc int, ap, bp []float32, kc int, load bool)

// cpuid and xgetbv0 execute the instructions they are named after
// (xgetbv0 reads XCR0).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)
