package tensor

import "sync"

// The scratch arena backs every transient buffer of the math kernels:
// GEMM packing panels, the conv layers' bordered gradient images and
// weight-gradient products, and the int8 path's column matrices,
// quantized activation planes and accumulator rows. Buffers are
// leased per call and returned to a sync.Pool, so the steady-state hot
// path — a predict call or a train step after warm-up — performs no
// heap allocation for kernel scratch. cbx-lint's hot-path-alloc
// analyzer enforces this on the kernels themselves; the arena is where
// the allocations that used to live there went.
//
// Pool entries are pointers to slice headers so that Put never
// re-boxes a slice value, and a leased buffer is always resliced to
// the requested length (growing the backing array only when a larger
// lease arrives than the pool has seen). Contents are NOT zeroed:
// every kernel that leases scratch overwrites the full extent it reads
// (Pad and im2col write padding zeros explicitly; GEMM packing fills
// whole panels; the int32 accumulator rows are cleared by the kernel).

var (
	f32Pool = sync.Pool{New: func() any { return new([]float32) }}
	i8Pool  = sync.Pool{New: func() any { return new([]int8) }}
	i32Pool = sync.Pool{New: func() any { return new([]int32) }}
)

// Scratch is a leased float32 buffer. The zero value is not a lease;
// obtain one with GetScratch and return it with Release. Using Data
// after Release is a use-after-free style bug (the race test hammers
// this contract under -race).
type Scratch struct {
	Data []float32
	p    *[]float32
}

// GetScratch leases a float32 buffer of length n from the arena. The
// contents are unspecified; the caller must overwrite every element it
// later reads.
func GetScratch(n int) Scratch {
	p := f32Pool.Get().(*[]float32)
	if cap(*p) < n {
		*p = make([]float32, n)
	}
	*p = (*p)[:n]
	return Scratch{Data: *p, p: p}
}

// Release returns the buffer to the arena. Safe on the zero value.
func (s Scratch) Release() {
	if s.p != nil {
		f32Pool.Put(s.p)
	}
}

// ScratchQ8 is a leased int8 buffer (quantized activations).
type ScratchQ8 struct {
	Data []int8
	p    *[]int8
}

// GetScratchQ8 leases an int8 buffer of length n.
func GetScratchQ8(n int) ScratchQ8 {
	p := i8Pool.Get().(*[]int8)
	if cap(*p) < n {
		*p = make([]int8, n)
	}
	*p = (*p)[:n]
	return ScratchQ8{Data: *p, p: p}
}

// Release returns the buffer to the arena. Safe on the zero value.
func (s ScratchQ8) Release() {
	if s.p != nil {
		i8Pool.Put(s.p)
	}
}

// ScratchI32 is a leased int32 buffer (q8 accumulator rows).
type ScratchI32 struct {
	Data []int32
	p    *[]int32
}

// GetScratchI32 leases an int32 buffer of length n.
func GetScratchI32(n int) ScratchI32 {
	p := i32Pool.Get().(*[]int32)
	if cap(*p) < n {
		*p = make([]int32, n)
	}
	*p = (*p)[:n]
	return ScratchI32{Data: *p, p: p}
}

// Release returns the buffer to the arena. Safe on the zero value.
func (s ScratchI32) Release() {
	if s.p != nil {
		i32Pool.Put(s.p)
	}
}
