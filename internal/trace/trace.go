// Package trace models memory access traces: the sequences of load and
// store addresses a program issues, annotated with instruction counts.
//
// A trace is the fundamental exchange format between the synthetic
// workload generators (package workload), the architectural cache
// simulator (package cachesim) and the heatmap pipeline (package
// heatmap). Traces are held in memory and serialised to a compact
// binary format.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Access is a single memory operation.
type Access struct {
	// Addr is the byte address accessed.
	Addr uint64
	// IC is the dynamic instruction count at which the access occurs.
	// Instruction counts are non-decreasing within a trace.
	IC uint64
	// Write reports whether the access is a store.
	Write bool
}

// Trace is an in-memory access trace.
type Trace struct {
	// Name identifies the benchmark (and phase) the trace came from.
	Name string
	// Accesses in program order.
	Accesses []Access
}

// Len returns the number of accesses in the trace.
func (t *Trace) Len() int { return len(t.Accesses) }

// Append adds an access with the given properties.
func (t *Trace) Append(addr, ic uint64, write bool) {
	t.Accesses = append(t.Accesses, Access{Addr: addr, IC: ic, Write: write})
}

// Slice returns a sub-trace covering accesses [lo, hi).
func (t *Trace) Slice(lo, hi int) *Trace {
	return &Trace{Name: t.Name, Accesses: t.Accesses[lo:hi]}
}

// magic identifies the binary trace format ("CBXT" + version 1).
var magic = [4]byte{'C', 'B', 'X', '1'}

// WriteBinary serialises the trace in a compact delta-encoded binary
// format: a magic header, the name, the record count, then per record
// the address delta (zig-zag varint), instruction-count delta (varint)
// and a read/write flag byte.
func WriteBinary(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := put(uint64(len(t.Name))); err != nil {
		return err
	}
	if _, err := bw.WriteString(t.Name); err != nil {
		return err
	}
	if err := put(uint64(len(t.Accesses))); err != nil {
		return err
	}
	var prevAddr, prevIC uint64
	for _, a := range t.Accesses {
		d := int64(a.Addr - prevAddr)
		// Zig-zag encode the signed address delta.
		if err := put(uint64((d << 1) ^ (d >> 63))); err != nil {
			return err
		}
		if err := put(a.IC - prevIC); err != nil {
			return err
		}
		flag := byte(0)
		if a.Write {
			flag = 1
		}
		if err := bw.WriteByte(flag); err != nil {
			return err
		}
		prevAddr, prevIC = a.Addr, a.IC
	}
	return bw.Flush()
}

// ErrBadFormat reports a malformed or truncated binary trace.
var ErrBadFormat = errors.New("trace: bad binary format")

// ReadBinary deserialises a trace written by WriteBinary.
func ReadBinary(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if m != magic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadFormat, m[:])
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	const maxName = 1 << 16
	if nameLen > maxName {
		return nil, fmt.Errorf("%w: name length %d", ErrBadFormat, nameLen)
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBuf); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	t := &Trace{Name: string(nameBuf)}
	var prevAddr, prevIC uint64
	for i := uint64(0); i < n; i++ {
		zz, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", ErrBadFormat, i, err)
		}
		d := int64(zz>>1) ^ -int64(zz&1)
		icd, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", ErrBadFormat, i, err)
		}
		flag, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", ErrBadFormat, i, err)
		}
		prevAddr += uint64(d)
		prevIC += icd
		t.Accesses = append(t.Accesses, Access{Addr: prevAddr, IC: prevIC, Write: flag != 0})
	}
	return t, nil
}
