package trace_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"cachebox/internal/trace"
	"cachebox/internal/workload"
)

// FuzzTraceBinaryRoundTrip fuzzes the binary codec, the format every
// CLI reads traces from disk in. ReadBinary must reject malformed input
// with ErrBadFormat and never panic, and any trace it accepts must
// survive WriteBinary → ReadBinary unchanged. The second half pins the
// two directions of the codec to each other: a decoder leniency the
// encoder cannot reproduce shows up as a round-trip mismatch.
func FuzzTraceBinaryRoundTrip(f *testing.F) {
	encode := func(t *trace.Trace) []byte {
		var buf bytes.Buffer
		if err := trace.WriteBinary(&buf, t); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	good := encode(workload.SpecLike(1, 1, 64).Benchmarks[0].Trace())
	header := func(name string, records uint64) []byte {
		b := binary.AppendUvarint([]byte("CBX1"), uint64(len(name)))
		return binary.AppendUvarint(append(b, name...), records)
	}
	f.Add(good)
	f.Add(good[:len(good)-len(good)/3])                 // truncated inside the records
	f.Add(append([]byte("CBX0"), good[4:]...))          // bad magic
	f.Add(binary.AppendUvarint([]byte("CBX1"), 1<<20))  // name longer than the format allows
	f.Add(append(header("x", 1<<40), 0x02, 0x01, 0x00)) // record count past EOF
	f.Add(encode(&trace.Trace{Name: "empty"}))          // no records
	f.Fuzz(func(t *testing.T, data []byte) {
		t1, err := trace.ReadBinary(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, trace.ErrBadFormat) {
				t.Fatalf("rejection does not wrap ErrBadFormat: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := trace.WriteBinary(&buf, t1); err != nil {
			t.Fatalf("WriteBinary on a decoded trace: %v", err)
		}
		t2, err := trace.ReadBinary(&buf)
		if err != nil {
			t.Fatalf("re-read of a written trace: %v", err)
		}
		if t1.Name != t2.Name {
			t.Fatalf("name changed across round trip: %q -> %q", t1.Name, t2.Name)
		}
		if !reflect.DeepEqual(t1.Accesses, t2.Accesses) {
			t.Fatalf("accesses changed across round trip\nin:  %+v\nout: %+v", t1.Accesses, t2.Accesses)
		}
	})
}
