package tensor

// Operand is one input of the blocked GEMM: a logical rows × cols
// matrix described by where its elements live rather than by a
// materialised copy, so the packers read every element straight from
// its source. Element (r, c) is data[rowOffset(r) + colOffset(c)],
// where each axis maps its index to an offset one of three ways:
//
//   - linear: index i sits at i·step. A dense row-major matrix has a
//     row step of cols and a column step of 1; its transpose swaps the
//     two, which is all T does.
//   - taps: index (ch, ky, kx) of a c·k·k axis sits at
//     ch·hp·wp + ky·wp + kx in a zero-bordered NCHW batch [n, c, hp, wp].
//   - positions: index (img, oy, ox) of an n·outH·outW axis sits at
//     img·c·hp·wp + (oy·wp + ox)·stride in the same batch.
//
// A taps × positions operand is exactly the column matrix im2col would
// write (Im2colOperand), and its T is that matrix transposed; neither
// is ever built. Every offset is strictly increasing in its index, so
// a run of consecutive offsets can be copied instead of gathered.
//
// PackedA adds a fourth form for a constant A operand: its micro-panels
// packed once, ahead of any GEMM, which the driver then reads in place
// of packing each tile.
type Operand struct {
	data       []float32
	rows, cols int
	row, col   axis

	// Convolution geometry, read by tap and position axes only.
	c, hp, wp, kernel, stride, outH, outW int

	// panels, when set, holds the whole operand as A micro-panels (see
	// PackedA); the driver reads them and never gathers from data.
	panels []float32
}

type axisKind uint8

const (
	linearAxis axisKind = iota
	tapAxis
	posAxis
)

// axis is one dimension of an Operand: its kind and, for a linear
// axis, the offset step between consecutive indices.
type axis struct {
	kind axisKind
	step int
}

// Mat describes the row-major rows × cols matrix held in data.
func Mat(data []float32, rows, cols int) Operand {
	// Every GEMM call builds its operands, so each check boxes its
	// arguments only once it has failed.
	if rows < 0 || cols < 0 || len(data) < rows*cols {
		mustValidShape(false, "tensor: Mat %dx%d over %d elements", rows, cols, len(data))
	}
	return Operand{data: data, rows: rows, cols: cols,
		row: axis{linearAxis, cols}, col: axis{linearAxis, 1}}
}

// Im2colOperand describes the column matrix [c·k·k, n·outH·outW] of a
// convolution over xp, a zero-bordered NCHW batch [n, c, hp, wp]: row
// (ch, ky, kx), column (img, oy, ox) holds
// xp[img, ch, oy·stride+ky, ox·stride+kx], with outH = (hp-k)/stride+1
// (likewise outW). For a batch bordered by pad on each side (Pad) it
// is the matrix Im2colStrided writes for the unbordered batch, sample
// after sample; with kernel 1, stride 1 and no border it is the batch
// regrouped channel-major, [c, n·h·w].
func Im2colOperand(xp []float32, n, c, hp, wp, kernel, stride int) Operand {
	if n < 0 || c < 0 || kernel < 1 || stride < 1 || hp < kernel || wp < kernel || len(xp) < n*c*hp*wp {
		mustValidShape(false, "tensor: Im2colOperand of [%d %d %d %d] (%d elements), kernel %d, stride %d",
			n, c, hp, wp, len(xp), kernel, stride)
	}
	outH, outW := ConvOutSize(hp, kernel, stride, 0), ConvOutSize(wp, kernel, stride, 0)
	return Operand{data: xp, rows: c * kernel * kernel, cols: n * outH * outW,
		row: axis{kind: tapAxis}, col: axis{kind: posAxis},
		c: c, hp: hp, wp: wp, kernel: kernel, stride: stride, outH: outH, outW: outW}
}

// T returns the transpose of o. No data moves: the two axes swap, and
// a pack is dropped, because its panels hold o's rows, not its columns.
func (o Operand) T() Operand {
	o.rows, o.cols = o.cols, o.rows
	o.row, o.col = o.col, o.row
	o.panels = nil
	return o
}

// PackedA returns o with every (row block, depth block) of it packed
// ahead as the A operand of a GEMM, in exactly the micro-panel layout
// packA writes into a tile's scratch: the block of rows [ic, ic+mc) and
// depth [pc, pc+kc) starts at panels[ic·k + mcp·pc], where mcp is mc
// rounded up to whole gemmMR-row panels. The driver then reads each
// tile's panels from the pack instead of gathering them, so a constant
// weight matrix is packed once rather than once per tile per call, and
// since a pack holds the same values packA would write the result is
// bit-identical. The pack is a snapshot: it does not see later writes
// to o's source, so the caller must build a new one when those change.
func (o Operand) PackedA() Operand { return o.RepackedA(Operand{}) }

// RepackedA is PackedA writing the panels into prev's, the pack of an
// earlier version of the same weight, when they are large enough, so a
// weight re-packed after every update keeps one buffer. prev must no
// longer be read: its panels are overwritten.
func (o Operand) RepackedA(prev Operand) Operand {
	m, k := o.rows, o.cols
	panels := prev.panels
	if size := roundUp(m, gemmMR) * k; cap(panels) >= size {
		panels = panels[:size]
	} else {
		panels = make([]float32, size)
	}
	for ic := 0; ic < m; ic += gemmMC {
		mc := min(gemmMC, m-ic)
		for pc := 0; pc < k; pc += gemmKC {
			kc := min(gemmKC, k-pc)
			packA(panels[aPanelBlock(ic, pc, mc, k):], &o, ic, pc, mc, kc)
		}
	}
	o.panels = panels
	return o
}

// aPanelBlock is the offset of block (ic, pc) in a PackedA pack of
// depth k, whose row block holds mc rows: every earlier row block is a
// full gemmMC rows deep over all of k, and within this one each earlier
// depth block holds its mc rows rounded up to whole panels.
func aPanelBlock(ic, pc, mc, k int) int { return ic*k + roundUp(mc, gemmMR)*pc }

// roundUp rounds n up to a multiple of m.
func roundUp(n, m int) int { return (n + m - 1) / m * m }

// offsets fills offs with the offsets of indices i, i+1, … along ax.
// Tap and position indices are decomposed once and then stepped, so
// the cost is one add per offset.
func (o *Operand) offsets(offs []int, i int, ax axis) {
	switch ax.kind {
	case linearAxis:
		for j := range offs {
			offs[j] = (i + j) * ax.step
		}
	case tapAxis:
		k, plane := o.kernel, o.hp*o.wp
		ch, ky, kx := i/(k*k), i/k%k, i%k
		for j := range offs {
			offs[j] = ch*plane + ky*o.wp + kx
			if kx++; kx == k {
				if kx, ky = 0, ky+1; ky == k {
					ky, ch = 0, ch+1
				}
			}
		}
	case posAxis:
		image, hw := o.c*o.hp*o.wp, o.outH*o.outW
		img, oy, ox := i/hw, i%hw/o.outW, i%o.outW
		for j := range offs {
			offs[j] = img*image + (oy*o.wp+ox)*o.stride
			if ox++; ox == o.outW {
				if ox, oy = 0, oy+1; oy == o.outH {
					oy, img = 0, img+1
				}
			}
		}
	}
}
