package heatmap

import (
	"fmt"

	"cachebox/internal/trace"
)

// StreamBuilder accumulates heatmap images from an access stream
// without materialising the trace — the paper notes (§4.2) that the
// tracer "can dump heatmaps faster than traces"; this is that path.
// Feed accesses with Add; completed images become available as soon as
// their last column closes.
//
// An access inside the current column costs one comparison and one
// pixel update: the builder remembers where that column starts, and
// divides, allocates and emits only when an access crosses into a later
// column, about once per WindowInstr instructions.
type StreamBuilder struct {
	cfg    Config
	name   string
	stride int // cfg.strideCols()
	baseIC uint64
	seen   bool

	cols   [][]float32
	offset int       // global column index of cols[0]
	cur    int       // column of the latest IC seen
	curIC  uint64    // first IC of column cur
	col    []float32 // cols[cur-offset] once Add has allocated it, else nil
	done   []*Heatmap
	next   int // next image index to emit
}

// NewStreamBuilder constructs a streaming builder. The configuration
// must be valid.
func NewStreamBuilder(cfg Config, name string) (*StreamBuilder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &StreamBuilder{cfg: cfg, name: name, stride: cfg.strideCols()}, nil
}

// NewStreamBuilderAt constructs a streaming builder whose column 0 is
// anchored at baseIC rather than at the first access seen. This is how
// a miss builder shares the access stream's binning (the streaming
// analogue of passing one baseIC to two buildWide calls).
func NewStreamBuilderAt(cfg Config, name string, baseIC uint64) (*StreamBuilder, error) {
	b, err := NewStreamBuilder(cfg, name)
	if err != nil {
		return nil, err
	}
	b.anchor(baseIC)
	return b, nil
}

func (b *StreamBuilder) anchor(baseIC uint64) {
	b.baseIC, b.curIC, b.seen = baseIC, baseIC, true
}

// Add feeds one access. Accesses must arrive in non-decreasing
// instruction-count order.
//
//cbx:hotpath runs once per simulated access; the column-crossing work lives in enterColumn
func (b *StreamBuilder) Add(a trace.Access) error {
	if b.col == nil || a.IC-b.curIC >= b.cfg.WindowInstr {
		if err := b.enterColumn(a.IC); err != nil {
			return err
		}
	}
	b.col[(a.Addr>>b.cfg.AddrShift)%uint64(b.cfg.Height)]++
	return nil
}

// AdvanceTo notes that the stream has reached instruction count ic
// without recording an access, closing any images whose columns are now
// complete. A miss builder is advanced on every access of its parent
// stream so all-hit windows still emit their (empty) miss images in
// lockstep with the access builder.
//
//cbx:hotpath runs once per simulated hit; the column-crossing work lives in advance
func (b *StreamBuilder) AdvanceTo(ic uint64) error {
	if b.seen && ic-b.curIC < b.cfg.WindowInstr {
		return nil
	}
	return b.advance(ic)
}

// advance moves the builder to the column holding ic, emitting every
// image the move closes. It anchors column 0 at the first IC seen and
// rejects an IC before the current column.
func (b *StreamBuilder) advance(ic uint64) error {
	if !b.seen {
		b.anchor(ic)
	}
	if ic < b.curIC {
		return fmt.Errorf("heatmap: stream IC went backwards (%d < %d)", ic, b.curIC)
	}
	if col := int((ic - b.baseIC) / b.cfg.WindowInstr); col > b.cur {
		b.cur = col
		b.curIC = b.baseIC + uint64(col)*b.cfg.WindowInstr
		b.col = nil
		b.emitComplete(col)
	}
	return nil
}

// enterColumn is Add's slow path: advance to ic's column and allocate
// every column up to it.
func (b *StreamBuilder) enterColumn(ic uint64) error {
	if err := b.advance(ic); err != nil {
		return err
	}
	for b.cur-b.offset >= len(b.cols) {
		b.cols = append(b.cols, make([]float32, b.cfg.Height))
	}
	b.col = b.cols[b.cur-b.offset]
	return nil
}

// emitComplete materialises every image whose last column is strictly
// before the current column (all its data has arrived) and trims
// columns no future image needs.
func (b *StreamBuilder) emitComplete(curCol int) {
	for start := b.next * b.stride; start+b.cfg.Width <= curCol; start = b.next * b.stride {
		b.emit(start)
		// Columns before the next image's start are never read again.
		if trim := (b.next * b.stride) - b.offset; trim > 0 {
			if trim > len(b.cols) {
				trim = len(b.cols)
			}
			b.cols = b.cols[trim:]
			b.offset += trim
		}
	}
}

// emit queues image b.next, which starts at global column start; columns
// not yet allocated read as empty.
func (b *StreamBuilder) emit(start int) {
	m := NewHeatmap(b.name, b.cfg.Height, b.cfg.Width)
	m.Index = b.next
	m.StartCol = start
	for x := 0; x < b.cfg.Width; x++ {
		gx := start + x - b.offset
		if gx < 0 || gx >= len(b.cols) {
			continue
		}
		col := b.cols[gx]
		for y := 0; y < b.cfg.Height; y++ {
			m.Pix[y*b.cfg.Width+x] = col[y]
		}
	}
	b.done = append(b.done, m)
	b.next++
}

// Drain returns the images completed so far and clears the internal
// queue; call repeatedly while streaming.
func (b *StreamBuilder) Drain() []*Heatmap {
	out := b.done
	b.done = nil
	return out
}

// Finish declares the stream over and returns the remaining images.
// Unlike Flush it first closes every image whose span is covered by the
// columns actually seen, so the final complete image — which
// emitComplete can never emit, lacking a later column to prove it
// closed — is included. The resulting image sequence matches what
// Build/split produce for the materialised trace exactly, including the
// KeepPartial trailing image.
func (b *StreamBuilder) Finish() []*Heatmap {
	if b.seen {
		b.emitComplete(b.cur + 1)
	}
	return b.Flush()
}

// Flush completes the stream: with KeepPartial set it emits trailing
// padded images covering any remaining columns — every image whose
// start lies within the columns actually seen, matching split's
// `start < len(cols)` condition (a short stride can leave more than
// one such partial). It returns the final batch of images.
func (b *StreamBuilder) Flush() []*Heatmap {
	if b.cfg.KeepPartial {
		for start := b.next * b.stride; start-b.offset < len(b.cols); start = b.next * b.stride {
			b.emit(start)
		}
	}
	return b.Drain()
}
