package tensor

import (
	"context"

	"cachebox/internal/obs"
	"cachebox/internal/par"
)

// This file holds the cache-blocked, goroutine-tiled GEMM: one driver,
// one packing layout, and the portable micro-kernel. The structure is
// the three-level blocking of BLIS:
//
//   - the output C is cut into gemmMC × gemmNC tiles, each owned by
//     exactly one task (deterministic index-ordered ownership: task t
//     owns tile (t / tilesN, t mod tilesN), and no two tasks write the
//     same C element);
//   - within a tile, the shared dimension is walked in gemmKC-deep
//     blocks, and each block of A and B is packed into micro-panels in
//     arena scratch: A as gemmMR-row panels and B as gemmNR-column
//     panels, both depth-major and padded to a whole panel, so a
//     micro-tile reads two contiguous streams and never a partial one.
//     The packers gather from an Operand (operand.go), so a transposed
//     matrix or a convolution's column matrix is packed straight from
//     its source and never copied out first. An A operand packed ahead
//     (Operand.PackedA) skips its packer: the tile reads its panels;
//   - a micro-kernel accumulates one gemmMR × gemmNR patch of C across
//     one depth block. Two kernels share that contract: gemmMicroGo
//     below, and on amd64 hosts with AVX2 the assembly kernel in
//     gemm_amd64.s (see gemmMicro for the choice).
//
// Determinism and bit-exactness: every C element is accumulated in
// strictly increasing p order — depth blocks are visited in order and
// both kernels walk p sequentially within a block — and every product
// is rounded to float32 before the add (explicit float32() conversions
// in Go, VMULPS then VADDPS in assembly; never a fused multiply-add).
// The result is therefore byte-identical to the naive gemmRef triple
// loop, to either kernel and to any worker count, which is what keeps
// the golden artifacts stable on every host at any -j.
const (
	// gemmMC is the tile height: the packed gemmMC×gemmKC A block is
	// 64 KiB, L2-resident while the micro-tiles of a tile sweep it.
	gemmMC = 64
	// gemmKC is the depth block: one gemmKC×gemmNR B micro-panel
	// (16 KiB) stays L1-resident while every A micro-panel of the tile
	// streams past it.
	gemmKC = 256
	// gemmNC is the tile width: the packed gemmKC×gemmNC B block is
	// 256 KiB, sized for the L2 slice the tile's task effectively owns.
	gemmNC = 256
	// gemmMR × gemmNR is the micro-tile: on AVX2 eight YMM accumulators
	// (4 rows × 2 registers of 8 lanes) plus two B registers, one
	// broadcast A value and the product temporaries fill the sixteen
	// vector registers.
	gemmMR = 4
	gemmNR = 16

	// gemmParallelMin is the m·n·k below which the tiles run inline on
	// the calling goroutine: a par pool costs ~20 µs to start and join,
	// which the AVX2 kernel fills with ~2^19 multiply-adds. Measured on
	// the recording host (2 cores, AVX2 kernel, one worker vs two, shapes
	// of two or more tiles): 16×64×512 (2^19) 33.6 vs 36.0 µs, 16×16×2048
	// (2^19) 35.8 vs 42.3 µs; 32×64×512 (2^20) 53.0 vs 49.0 µs, 128×32×256
	// (2^20) 47.9 vs 45.2 µs; 64×64×512 (2^21) 91.9 vs 66.9 µs. Two
	// workers lose below 2^20, break even at it and win above it. The
	// portable kernel crosses over one octave lower (2^19: 228 vs 137 µs);
	// the constant is set for the kernel whose speed makes the pool's
	// cost matter.
	gemmParallelMin = 1 << 20
)

// gemmMode says how a GEMM combines the product with what C holds.
type gemmMode uint8

const (
	// gemmSet writes C = A×B.
	gemmSet gemmMode = iota
	// gemmAccumulate continues each element's running sum from C:
	// C = ((C + a₀b₀) + a₁b₁) + …, in depth order.
	gemmAccumulate
	// gemmAddAfter forms each element's sum from zero over the whole
	// depth, then adds it to C: C = C + (a₀b₀ + a₁b₁ + …). That is a
	// gemmSet into scratch followed by an elementwise add, bit for bit,
	// without the scratch. Up to gemmKC deep the sum of a micro-tile is
	// formed in registers and added in the epilogue; a deeper product
	// spans depth blocks, so it goes through scratch after all.
	gemmAddAfter
)

// gemmBlocked is the kernel driver: C[m,n] = A×B, or A×B combined with
// C as mode says, for an m×k operand a and a k×n operand b, with C
// row-major. It cuts C into tiles and runs them serially or across an
// internal/par pool. workers only changes the schedule, and avx2 only
// the micro-kernel (see gemmMicro); neither changes the result, and nor
// does the operands' kind, which only changes where the packers read
// from.
func gemmBlocked(avx2 bool, c []float32, a, b *Operand, mode gemmMode, workers int) {
	m, k, n := a.rows, a.cols, b.cols
	if b.rows != k || len(c) < m*n {
		mustValidShape(false, "tensor: gemm %dx%d by %dx%d into %d elements", m, k, b.rows, n, len(c))
	}
	if m <= 0 || n <= 0 {
		return
	}
	if k <= 0 {
		if mode == gemmSet {
			clear(c[:m*n])
		}
		return
	}
	if mode == gemmAddAfter && k > gemmKC {
		s := GetScratch(m * n)
		gemmBlocked(avx2, s.Data, a, b, gemmSet, workers)
		for i, v := range s.Data {
			c[i] += v
		}
		s.Release()
		return
	}
	tilesM := (m + gemmMC - 1) / gemmMC
	tilesN := (n + gemmNC - 1) / gemmNC
	tiles := tilesM * tilesN
	if workers > tiles {
		workers = tiles
	}
	if workers <= 1 || m*n*k < gemmParallelMin {
		for t := 0; t < tiles; t++ {
			gemmTile(avx2, c, a, b, t, tilesN, mode)
		}
		return
	}
	// The tasks get their own copies of the operands, so only this
	// branch, which allocates a pool anyway, moves them to the heap.
	ac, bc := *a, *b
	err := par.New(workers).Run(context.Background(), tiles, func(_ context.Context, t int) error {
		gemmTile(avx2, c, &ac, &bc, t, tilesN, mode)
		return nil
	})
	// Tasks never return errors, so err can only be a panic captured
	// inside the pool; re-raise it on the caller like the serial path
	// would have.
	mustValidShape(err == nil, "tensor: gemm tile worker: %v", err)
}

// gemmTile computes one gemmMC × gemmNC output tile: pack both blocks
// per depth block into arena scratch, then sweep the micro-kernel over
// the tile with the B micro-panel in the outer loop, so it is read from
// L1 by every A micro-panel. Tile t covers C rows [ic, ic+mc) and cols
// [jc, jc+nc).
//
// Each panel and each C patch is re-sliced to exactly the extent the
// kernel will touch, so a wrong shape panics here, in Go, instead of
// reading out of bounds in assembly. A gemmAddAfter tile is one depth
// block deep (gemmBlocked sends deeper ones through scratch): every
// micro-tile runs into the stack tile from zero and is added to C.
func gemmTile(avx2 bool, c []float32, a, b *Operand, t, tilesN int, mode gemmMode) {
	m, k, n := a.rows, a.cols, b.cols
	ic := (t / tilesN) * gemmMC
	jc := (t % tilesN) * gemmNC
	mc := min(gemmMC, m-ic)
	nc := min(gemmNC, n-jc)
	var aps Scratch
	if a.panels == nil {
		aps = GetScratch(gemmMC * gemmKC)
	}
	bps := GetScratch(gemmKC * gemmNC)
	addAfter := mode == gemmAddAfter
	for pc := 0; pc < k; pc += gemmKC {
		kc := min(gemmKC, k-pc)
		apanels := aps.Data
		if a.panels != nil {
			apanels = a.panels[aPanelBlock(ic, pc, mc, k):]
		} else {
			packA(apanels, a, ic, pc, mc, kc)
		}
		packB(bps.Data, b, jc, pc, nc, kc)
		// On the first depth block of a non-accumulating GEMM the kernel
		// starts its accumulators at zero instead of loading C, so the
		// output needs no separate zeroing pass.
		load := pc > 0 || mode == gemmAccumulate
		for jr := 0; jr < nc; jr += gemmNR {
			bp := bps.Data[jr*kc : (jr+gemmNR)*kc]
			nr := min(gemmNR, nc-jr)
			for ir := 0; ir < mc; ir += gemmMR {
				ap := apanels[ir*kc : (ir+gemmMR)*kc]
				mr := min(gemmMR, mc-ir)
				off := (ic+ir)*n + jc + jr
				if mr == gemmMR && nr == gemmNR && !addAfter {
					gemmMicro(avx2, c[off:off+(gemmMR-1)*n+gemmNR], n, ap, bp, kc, load)
					continue
				}
				// Edge of the matrix, or an add-after tile: run the full
				// kernel into a stack tile and copy (or add) the valid
				// part. The padding lanes of the panels only reach the
				// rows and columns dropped here.
				var edge [gemmMR * gemmNR]float32
				if load {
					for r := 0; r < mr; r++ {
						copy(edge[r*gemmNR:r*gemmNR+nr], c[off+r*n:])
					}
				}
				gemmMicro(avx2, edge[:], gemmNR, ap, bp, kc, load)
				for r := 0; r < mr; r++ {
					row, sum := c[off+r*n:off+r*n+nr], edge[r*gemmNR:r*gemmNR+nr]
					if addAfter {
						for x, v := range sum {
							row[x] += v
						}
					} else {
						copy(row, sum)
					}
				}
			}
		}
	}
	aps.Release()
	bps.Release()
}

// packA gathers the A block rows [ic, ic+mc) × depth [pc, pc+kc) into
// gemmMR-row micro-panels: the panel of rows ir..ir+gemmMR starts at
// ap[ir*kc] and holds ap[ir*kc+p*gemmMR+r] = A[ic+ir+r, pc+p]. One
// depth step of a micro-tile reads its gemmMR A values contiguously and
// a whole micro-tile reads one contiguous panel. Rows past mc repeat
// the last row: they reach only C rows gemmTile drops, and the panel
// needs no edge case. Every operand kind goes through this one gather,
// so a convolution is lowered here, element by element, and never
// materialised. Offsets strictly increase along every axis, so depth
// offsets that span exactly kc elements are one run per row and are
// read as slices.
func packA(ap []float32, a *Operand, ic, pc, mc, kc int) {
	l := obs.StartLeaf("tensor.pack")
	var cols [gemmKC]int
	depth := cols[:kc]
	a.offsets(depth, pc, a.col)
	contiguous := depth[kc-1]-depth[0] == kc-1
	for ir := 0; ir < mc; ir += gemmMR {
		var rows [gemmMR]int
		mr := min(gemmMR, mc-ir)
		a.offsets(rows[:mr], ic+ir, a.row)
		for r := mr; r < gemmMR; r++ {
			rows[r] = rows[mr-1]
		}
		panel := ap[ir*kc : (ir+gemmMR)*kc]
		if contiguous {
			// A run per row, as in a dense A: slices the compiler can
			// range without a bounds test, 1.45× the gather.
			r0, r1, r2, r3 := a.data[rows[0]+depth[0]:][:kc], a.data[rows[1]+depth[0]:][:kc],
				a.data[rows[2]+depth[0]:][:kc], a.data[rows[3]+depth[0]:][:kc]
			for p := range r0 {
				d := panel[p*gemmMR : p*gemmMR+gemmMR : p*gemmMR+gemmMR]
				d[0], d[1], d[2], d[3] = r0[p], r1[p], r2[p], r3[p]
			}
			continue
		}
		r0, r1, r2, r3 := a.data[rows[0]:], a.data[rows[1]:], a.data[rows[2]:], a.data[rows[3]:]
		for p, off := range depth {
			d := panel[p*gemmMR : p*gemmMR+gemmMR : p*gemmMR+gemmMR]
			d[0], d[1], d[2], d[3] = r0[off], r1[off], r2[off], r3[off]
		}
	}
	l.End()
}

// packB gathers the B block depth [pc, pc+kc) × cols [jc, jc+nc) into
// gemmNR-column micro-panels: the panel of cols jr..jr+gemmNR starts at
// bp[jr*kc] and holds bp[jr*kc+p*gemmNR+x] = B[pc+p, jc+jr+x]. Cols
// past nc repeat the last column's offset, as packA's rows do. Offsets
// strictly increase along every axis, so a full panel whose sixteen
// column offsets span exactly sixteen elements is a contiguous run per
// depth step — a dense matrix, or a stride-1 convolution within an
// output row — and is copied instead of gathered.
func packB(bp []float32, b *Operand, jc, pc, nc, kc int) {
	l := obs.StartLeaf("tensor.pack")
	var rows [gemmKC]int
	depth := rows[:kc]
	b.offsets(depth, pc, b.row)
	for jr := 0; jr < nc; jr += gemmNR {
		var cols [gemmNR]int
		nr := min(gemmNR, nc-jr)
		b.offsets(cols[:nr], jc+jr, b.col)
		for x := nr; x < gemmNR; x++ {
			cols[x] = cols[nr-1]
		}
		panel := bp[jr*kc : (jr+gemmNR)*kc]
		if nr == gemmNR && cols[gemmNR-1]-cols[0] == gemmNR-1 {
			for p, off := range depth {
				copy(panel[p*gemmNR:(p+1)*gemmNR], b.data[off+cols[0]:])
			}
			continue
		}
		// Unrolled: 1.45× the loop over cols on a stride-2 convolution.
		for p, off := range depth {
			d := panel[p*gemmNR : (p+1)*gemmNR : (p+1)*gemmNR]
			src := b.data[off : off+cols[gemmNR-1]+1]
			d[0], d[1], d[2], d[3] = src[cols[0]], src[cols[1]], src[cols[2]], src[cols[3]]
			d[4], d[5], d[6], d[7] = src[cols[4]], src[cols[5]], src[cols[6]], src[cols[7]]
			d[8], d[9], d[10], d[11] = src[cols[8]], src[cols[9]], src[cols[10]], src[cols[11]]
			d[12], d[13], d[14], d[15] = src[cols[12]], src[cols[13]], src[cols[14]], src[cols[15]]
		}
	}
	l.End()
}

// gemmMicroGo is the portable micro-kernel, the only one off amd64 and
// the differential reference for the assembly one: C[0:4, 0:16] (+)=
// Ap·Bp over kc depth steps, where ap and bp are one packed micro-panel
// each (kc*gemmMR and kc*gemmNR values), c starts at the patch's
// top-left element with row stride ldc, and load says whether the
// accumulators start from C or from zero. The patch is computed as
// eight 2×4 blocks, each a full pass over the (L1-resident) panels:
// eight accumulators, two A and four B values are what stays in
// sixteen scalar registers without spilling, which measured 1.6× the
// rate of a 4×8 block on the same panels. The float32() conversions
// are load-bearing: they round every product before its add,
// forbidding FMA contraction, so the kernel is bit-identical to
// gemmRef on every platform.
//
//cbx:hotpath innermost GEMM micro-tile; runs millions of times per train step
func gemmMicroGo(c []float32, ldc int, ap, bp []float32, kc int, load bool) {
	ap = ap[:kc*gemmMR]
	for i := 0; i < gemmMR; i += 2 {
		ai := ap[i:]
		for h := 0; h < gemmNR; h += 4 {
			r0 := c[i*ldc+h : i*ldc+h+4 : i*ldc+h+4]
			r1 := c[(i+1)*ldc+h : (i+1)*ldc+h+4 : (i+1)*ldc+h+4]
			var c00, c01, c02, c03 float32
			var c10, c11, c12, c13 float32
			if load {
				c00, c01, c02, c03 = r0[0], r0[1], r0[2], r0[3]
				c10, c11, c12, c13 = r1[0], r1[1], r1[2], r1[3]
			}
			bh := bp[h : (kc-1)*gemmNR+h+4]
			for p := 0; p < kc; p++ {
				av := ai[p*gemmMR : p*gemmMR+2 : p*gemmMR+2]
				bv := bh[p*gemmNR : p*gemmNR+4 : p*gemmNR+4]
				b0, b1, b2, b3 := bv[0], bv[1], bv[2], bv[3]
				a0 := av[0]
				c00 += float32(a0 * b0)
				c01 += float32(a0 * b1)
				c02 += float32(a0 * b2)
				c03 += float32(a0 * b3)
				a1 := av[1]
				c10 += float32(a1 * b0)
				c11 += float32(a1 * b1)
				c12 += float32(a1 * b2)
				c13 += float32(a1 * b3)
			}
			r0[0], r0[1], r0[2], r0[3] = c00, c01, c02, c03
			r1[0], r1[1], r1[2], r1[3] = c10, c11, c12, c13
		}
	}
}
