package heatmap

import (
	"fmt"

	"cachebox/internal/trace"
)

// PairStream builds aligned access/miss heatmap pairs from a streamed
// access sequence — the streaming twin of BuildPair. Feed every access
// of a level's stream through Add together with its simulated hit/miss
// verdict; completed pairs become available via Drain as soon as their
// last column closes, and Finish returns the rest. The resulting pair
// sequence (images, names, indices, pixel values) is identical to
// calling BuildPair on the materialised access and miss traces.
//
// Equivalence has one subtlety: BuildPair windows the miss sub-stream
// on its own extent, so windows past the last miss get all-zero miss
// images even when the access stream continues — and a window the miss
// split never closes (the last miss falls mid-window) is padded empty,
// discarding its misses. PairStream reproduces this exactly by holding
// back "unsettled" miss images — those that overlap the last miss seen
// so far but whose windows the miss split has not provably closed —
// until a later miss settles them or Finish resolves them the way
// BuildPair would. At most ceil(Width/stride) images are ever held, so
// streaming memory stays bounded.
type PairStream struct {
	cfg  Config
	name string
	// acc and mis are nil until the first access anchors them.
	acc *StreamBuilder
	mis *StreamBuilder

	// lastMissCol is the global column of the latest actual miss; -1
	// before the first miss. It decides when a drained miss image is
	// settled (byte-final with respect to BuildPair).
	lastMissCol int

	accQ []*Heatmap
	misQ []*Heatmap
	done []Pair
	n    int // pairs emitted so far
}

// NewPairStream constructs a streaming pair builder for the named
// trace; the miss images are named name+".miss" to match
// cachesim.RunTrace's miss-stream naming.
func NewPairStream(cfg Config, name string) (*PairStream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &PairStream{cfg: cfg, name: name, lastMissCol: -1}, nil
}

// Add feeds one access and whether it missed. Accesses must arrive in
// non-decreasing instruction-count order.
//
//cbx:hotpath runs once per simulated access; pairing runs only when an image closes or a miss can settle one
func (p *PairStream) Add(a trace.Access, miss bool) error {
	if p.acc == nil {
		if err := p.begin(a.IC); err != nil {
			return err
		}
	}
	if err := p.acc.Add(a); err != nil {
		return err
	}
	if miss {
		if err := p.mis.Add(a); err != nil {
			return err
		}
		p.lastMissCol = p.mis.cur
	} else if err := p.mis.AdvanceTo(a.IC); err != nil {
		return err
	}
	// Pairing can only progress when a builder closed an image or a new
	// miss moves lastMissCol under a held miss image.
	if len(p.acc.done) > 0 || len(p.mis.done) > 0 || (miss && len(p.misQ) > 0) {
		p.collect(p.acc.Drain(), p.mis.Drain())
	}
	return nil
}

// begin anchors both builders at the first access's IC, exactly as
// BuildPair passes one baseIC to both buildWide calls.
func (p *PairStream) begin(baseIC uint64) error {
	acc, err := NewStreamBuilderAt(p.cfg, p.name, baseIC)
	if err != nil {
		return err
	}
	mis, err := NewStreamBuilderAt(p.cfg, p.name+".miss", baseIC)
	if err != nil {
		return err
	}
	p.acc, p.mis = acc, mis
	return nil
}

// missSettled reports whether m's bytes can no longer change relative
// to BuildPair's output: either the miss split provably emits it
// (its last column is at or before the last miss), or it lies wholly
// past the last miss — then it is all-zero, and BuildPair yields an
// identical empty image whether the split emits it or pads it. An
// emitted image's columns are closed, so no future miss can land in an
// unsettled image's span; only the split-vs-pad verdict is pending.
func (p *PairStream) missSettled(m *Heatmap) bool {
	if p.cfg.KeepPartial {
		// With KeepPartial every drained miss image is byte-final:
		// the split keeps any window whose start lies within the miss
		// columns (partial or full, identical pixels either way — the
		// image's own columns are closed, so future misses land past
		// its span) and windows wholly past the last miss are
		// all-zero whether split emits or pads them.
		return true
	}
	if m.StartCol+p.cfg.Width <= p.lastMissCol+1 {
		return true
	}
	return m.StartCol > p.lastMissCol
}

func (p *PairStream) collect(am, mm []*Heatmap) {
	p.accQ = append(p.accQ, am...)
	p.misQ = append(p.misQ, mm...)
	for len(p.accQ) > 0 && len(p.misQ) > 0 {
		m := p.misQ[0]
		if !p.missSettled(m) {
			break
		}
		p.done = append(p.done, Pair{Access: p.accQ[0], Miss: m})
		p.accQ = p.accQ[1:]
		p.misQ = p.misQ[1:]
		p.n++
	}
}

// Drain returns the pairs completed so far and clears the internal
// queue; call repeatedly while streaming.
func (p *PairStream) Drain() []Pair {
	out := p.done
	p.done = nil
	return out
}

// Emitted reports how many pairs have been produced in total (drained
// or not).
func (p *PairStream) Emitted() int { return p.n }

// Finish declares the stream over and returns the remaining pairs,
// resolving them exactly as BuildPair would: settled miss images keep
// their pixels; unsettled ones survive with KeepPartial (the miss
// split emits every window whose start lies within the miss columns as
// a trailing partial, and our full-width images carry identical
// pixels) and are replaced by empty images otherwise.
func (p *PairStream) Finish() ([]Pair, error) {
	if p.acc == nil {
		return nil, nil
	}
	p.accQ = append(p.accQ, p.acc.Finish()...)
	p.misQ = append(p.misQ, p.mis.Finish()...)
	for len(p.accQ) > 0 {
		a := p.accQ[0]
		p.accQ = p.accQ[1:]
		var m *Heatmap
		if len(p.misQ) > 0 {
			m = p.misQ[0]
			p.misQ = p.misQ[1:]
			if !p.missSettled(m) && !p.cfg.KeepPartial {
				// BuildPair's miss split never closes this window and
				// pads it empty, discarding its misses.
				m = nil
			}
		}
		if m == nil {
			m = NewHeatmap(p.name+".miss", p.cfg.Height, p.cfg.Width)
			m.Index = a.Index
			m.StartCol = a.Index * p.acc.stride
		}
		p.done = append(p.done, Pair{Access: a, Miss: m})
		p.n++
	}
	if len(p.misQ) > 0 {
		return nil, fmt.Errorf("heatmap: pair stream finished with %d unmatched miss images", len(p.misQ))
	}
	return p.Drain(), nil
}
