package heatmap

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"cachebox/internal/trace"
)

// FuzzPairStreamMatchesBuildPair is the differential check of the
// streaming windower: for any geometry and any non-decreasing access
// stream with per-access miss flags, PairStream must emit exactly the
// pairs BuildPair builds from the materialised access and miss traces.
//
// The first six bytes pick the geometry (Height and Width 1–8,
// WindowInstr 1–16, Overlap from {0, 0.3, 0.5, 0.9} — 0.9 gives stride
// 1 —, AddrShift 0–2, KeepPartial); every following byte pair is one
// access. Its first byte's low two bits choose the IC step — none,
// within one column, a whole number of columns (so ICs land exactly on
// column boundaries), or a jump past more than Width columns — bit 2
// marks a miss and the rest scales the step; the second byte is the
// address.
func FuzzPairStreamMatchesBuildPair(f *testing.F) {
	const (
		near, cols, far = 1, 2, 3 // IC step kinds; 0 repeats the IC
		miss            = 4
	)
	access := func(step, scale byte, missed bool, addr byte) []byte {
		b := step | scale<<3
		if missed {
			b |= miss
		}
		return []byte{b, addr}
	}
	seed := func(geom []byte, n int, next func(i int) []byte) []byte {
		out := append([]byte{}, geom...)
		for i := 0; i < n; i++ {
			out = append(out, next(i)...)
		}
		return out
	}
	// Height 4, Width 4, WindowInstr 5, Overlap 0.3, AddrShift 1.
	geom := []byte{3, 3, 4, 1, 1, 0}
	geomKeep := []byte{3, 3, 4, 1, 1, 1}
	f.Add(seed(geom, 200, func(i int) []byte { return access(near, byte(i), false, byte(i*7)) }))                         // all hit
	f.Add(seed(geomKeep, 200, func(i int) []byte { return access(near, byte(i), true, byte(i*7)) }))                      // all miss
	f.Add(seed([]byte{7, 7, 15, 3, 0, 0}, 120, func(i int) []byte { return access(cols, byte(i%4), i%3 == 0, byte(i)) })) // on column boundaries
	f.Add(seed(geom, 300, func(i int) []byte { return access(near, byte(i), i < 40 && i%2 == 0, byte(i*3)) }))            // long hit tail
	f.Add(seed(geomKeep, 300, func(i int) []byte { return access(near, byte(i), i < 40 && i%2 == 0, byte(i*3)) }))
	f.Add(seed([]byte{1, 5, 0, 2, 2, 0}, 60, func(i int) []byte { return access(byte(i%4), byte(i), i%5 == 0, byte(i*11)) })) // every step kind
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		cfg := Config{
			Height:      1 + int(data[0]%8),
			Width:       1 + int(data[1]%8),
			WindowInstr: 1 + uint64(data[2]%16),
			Overlap:     []float64{0, 0.3, 0.5, 0.9}[data[3]%4],
			AddrShift:   uint(data[4] % 3),
			KeepPartial: data[5]&1 == 1,
		}
		accesses := &trace.Trace{Name: "fz"}
		misses := &trace.Trace{Name: "fz.miss"}
		var missed []bool
		ic := uint64(100)
		for i := 6; i+1 < len(data); i += 2 {
			b, scale := data[i], uint64(data[i]>>3)
			switch b & 3 {
			case near:
				ic += scale % cfg.WindowInstr
			case cols:
				ic += cfg.WindowInstr * (1 + scale%4)
			case far:
				ic += cfg.WindowInstr*(uint64(cfg.Width)+1+scale%8) + scale%cfg.WindowInstr
			}
			a := trace.Access{Addr: uint64(data[i+1]) * 5, IC: ic}
			accesses.Accesses = append(accesses.Accesses, a)
			if b&miss != 0 {
				misses.Accesses = append(misses.Accesses, a)
			}
			missed = append(missed, b&miss != 0)
		}
		want, err := BuildPair(cfg, accesses, misses)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := NewPairStream(cfg, "fz")
		if err != nil {
			t.Fatal(err)
		}
		var got []Pair
		for i, a := range accesses.Accesses {
			if err := ps.Add(a, missed[i]); err != nil {
				t.Fatal(err)
			}
			// Add skips pairing unless it can progress; it must never
			// hold back a pair it could emit.
			if len(ps.accQ) > 0 && len(ps.misQ) > 0 && ps.missSettled(ps.misQ[0]) {
				t.Fatalf("cfg %+v: access %d: a settled pair is held back", cfg, i)
			}
			got = append(got, ps.Drain()...)
		}
		rest, err := ps.Finish()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rest...)
		if len(got) != len(want) {
			t.Fatalf("cfg %+v: %d streamed pairs, BuildPair %d", cfg, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("cfg %+v: pair %d differs:\nstreamed access %+v miss %+v\nBuildPair access %+v miss %+v",
					cfg, i, got[i].Access, got[i].Miss, want[i].Access, want[i].Miss)
			}
		}
		if ps.Emitted() != len(want) {
			t.Fatalf("cfg %+v: Emitted() = %d, want %d", cfg, ps.Emitted(), len(want))
		}
	})
}

// FuzzHeatmapConstrain feeds ConstrainMiss raw float32 bit patterns —
// including NaNs, infinities and negative zeros a misbehaving model
// could emit — and checks the physical-support invariant: every output
// cell is finite and lies in [0, access cap], where a garbage
// (non-finite or negative) access count caps its cell at 0. NaN is the
// classic escape here: it fails both of the in-range comparisons, so
// an unguarded clamp passes it straight through into the hit-rate sum.
func FuzzHeatmapConstrain(f *testing.F) {
	nan := math.Float32bits(float32(math.NaN()))
	inf := math.Float32bits(float32(math.Inf(1)))
	seed := func(vals ...uint32) []byte {
		b := make([]byte, 4*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint32(b[4*i:], v)
		}
		return b
	}
	f.Add(seed(math.Float32bits(3), math.Float32bits(5), math.Float32bits(7), math.Float32bits(2)))
	f.Add(seed(nan, math.Float32bits(5), inf, math.Float32bits(2)))
	f.Add(seed(math.Float32bits(1), nan, math.Float32bits(1), inf))
	f.Add(seed(math.Float32bits(-4), math.Float32bits(-1), inf|0x80000000, nan))
	f.Add(seed())
	f.Fuzz(func(t *testing.T, data []byte) {
		// Interpret the input as interleaved (pred, access) float32
		// pairs filling two equally sized single-row heatmaps.
		n := len(data) / 8
		if n == 0 {
			return
		}
		pred := NewHeatmap("pred", 1, n)
		access := NewHeatmap("access", 1, n)
		for i := 0; i < n; i++ {
			pred.Pix[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[8*i:]))
			access.Pix[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[8*i+4:]))
		}
		before := make([]uint32, n)
		for i, v := range pred.Pix {
			before[i] = math.Float32bits(v)
		}
		out := ConstrainMiss(pred, access)
		for i, v := range out.Pix {
			fv := float64(v)
			if math.IsNaN(fv) || math.IsInf(fv, 0) {
				t.Fatalf("cell %d: non-finite output %v (pred=%v access=%v)", i, v, pred.Pix[i], access.Pix[i])
			}
			if v < 0 {
				t.Fatalf("cell %d: negative output %v (pred=%v access=%v)", i, v, pred.Pix[i], access.Pix[i])
			}
			lim := access.Pix[i]
			if f := float64(lim); math.IsNaN(f) || math.IsInf(f, 0) || lim < 0 {
				lim = 0
			}
			if v > lim {
				t.Fatalf("cell %d: output %v exceeds access cap %v (pred=%v access=%v)",
					i, v, lim, pred.Pix[i], access.Pix[i])
			}
		}
		// ConstrainMiss clones: the prediction it was given must be
		// bit-for-bit untouched.
		for i, v := range pred.Pix {
			if math.Float32bits(v) != before[i] {
				t.Fatalf("cell %d: input prediction mutated", i)
			}
		}
	})
}
