package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestTraceAppendAndLen(t *testing.T) {
	tr := &Trace{Name: "t"}
	if tr.Len() != 0 {
		t.Fatalf("empty trace Len = %d, want 0", tr.Len())
	}
	tr.Append(0x1000, 1, false)
	tr.Append(0x1008, 4, true)
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
	if got := tr.Accesses[1]; got != (Access{Addr: 0x1008, IC: 4, Write: true}) {
		t.Fatalf("Accesses[1] = %+v", got)
	}
}

func TestSliceSharesBacking(t *testing.T) {
	tr := &Trace{Name: "t"}
	for i := 0; i < 10; i++ {
		tr.Append(uint64(i*64), uint64(i), false)
	}
	sub := tr.Slice(2, 5)
	if sub.Len() != 3 {
		t.Fatalf("sub.Len = %d, want 3", sub.Len())
	}
	if sub.Accesses[0].Addr != 128 {
		t.Fatalf("sub starts at %#x, want 0x80", sub.Accesses[0].Addr)
	}
	if sub.Name != "t" {
		t.Fatalf("sub.Name = %q", sub.Name)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := &Trace{Name: "bench/binary-roundtrip"}
	var ic uint64
	for i := 0; i < 5000; i++ {
		ic += uint64(rng.Intn(5))
		tr.Append(rng.Uint64()>>8, ic, rng.Intn(2) == 0)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if got.Name != tr.Name {
		t.Fatalf("name = %q, want %q", got.Name, tr.Name)
	}
	if !reflect.DeepEqual(got.Accesses, tr.Accesses) {
		t.Fatal("round-tripped accesses differ")
	}
}

func TestBinaryRoundTripEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, &Trace{Name: "empty"}); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if got.Name != "empty" || got.Len() != 0 {
		t.Fatalf("got %q len %d", got.Name, got.Len())
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XX"),
		[]byte("NOPE----------------"),
		{'C', 'B', 'X', '1'},                   // truncated after magic
		{'C', 'B', 'X', '1', 0xff, 0xff, 0xff}, // absurd name length varint, truncated
	}
	for i, c := range cases {
		if _, err := ReadBinary(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: ReadBinary accepted garbage", i)
		}
	}
}

// Property: binary round trip preserves arbitrary traces with
// monotone instruction counts.
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(addrs []uint64, writes []bool) bool {
		tr := &Trace{Name: "prop"}
		var ic uint64
		for i, a := range addrs {
			ic += uint64(i % 4)
			w := false
			if len(writes) > 0 {
				w = writes[i%len(writes)]
			}
			tr.Append(a, ic, w)
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return got.Len() == tr.Len() && reflect.DeepEqual(got.Accesses, tr.Accesses)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	tr := &Trace{Name: "s"}
	// 4 accesses in 2 distinct 64B blocks, one write.
	tr.Append(0, 3, false)
	tr.Append(8, 6, false)
	tr.Append(64, 9, true)
	tr.Append(8, 12, false)
	s := Summarize(tr, 64)
	if s.Accesses != 4 || s.Writes != 1 || s.Blocks != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.FootprintBytes != 128 {
		t.Fatalf("footprint = %d", s.FootprintBytes)
	}
	if s.MinAddr != 0 || s.MaxAddr != 64 {
		t.Fatalf("span = [%d,%d]", s.MinAddr, s.MaxAddr)
	}
	if s.Instructions != 9 {
		t.Fatalf("instructions = %d", s.Instructions)
	}
	if len(s.TopStrides) == 0 {
		t.Fatal("no strides recorded")
	}
}

func TestSummarizeEmptyAndDefaults(t *testing.T) {
	s := Summarize(&Trace{}, 0)
	if s.Accesses != 0 || s.Blocks != 0 {
		t.Fatalf("stats = %+v", s)
	}
	tr := &Trace{Accesses: []Access{{Addr: 100, IC: 1}}}
	s = Summarize(tr, 0) // zero block size defaults to 64
	if s.FootprintBytes != 64 {
		t.Fatalf("footprint = %d, want 64", s.FootprintBytes)
	}
	if s.String() == "" {
		t.Fatal("String is empty")
	}
}

func TestTopStridesRanked(t *testing.T) {
	tr := &Trace{}
	// stride 8 appears 6 times, stride 16 appears 2 times.
	addr := uint64(0)
	for i := 0; i < 7; i++ {
		tr.Append(addr, uint64(i), false)
		addr += 8
	}
	addr += 8 // skip to create a 16 stride
	tr.Append(addr, 7, false)
	addr += 16
	tr.Append(addr, 8, false)
	s := Summarize(tr, 64)
	if s.TopStrides[0].Stride != 8 {
		t.Fatalf("top stride = %d, want 8", s.TopStrides[0].Stride)
	}
}
