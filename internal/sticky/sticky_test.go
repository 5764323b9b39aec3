package sticky

import (
	"bytes"
	"errors"
	"testing"
)

// failAfter accepts n writes, then fails every one.
type failAfter struct {
	n   int
	buf bytes.Buffer
}

var errFull = errors.New("full")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n == 0 {
		return 0, errFull
	}
	f.n--
	return f.buf.Write(p)
}

func TestFirstErrorSticks(t *testing.T) {
	dst := &failAfter{n: 2}
	w := New(dst)
	w.Printf("a%d ", 1)
	w.Println("b")
	if w.Err() != nil {
		t.Fatalf("Err before a failed write = %v", w.Err())
	}
	w.Printf("c")
	dst.n = 5 // later writes would succeed, but the first error sticks
	w.Println("d")
	if n, err := w.Write([]byte("e")); n != 0 || !errors.Is(err, errFull) {
		t.Fatalf("Write after failure = %d, %v; want 0, %v", n, err, errFull)
	}
	if !errors.Is(w.Err(), errFull) {
		t.Fatalf("Err = %v, want %v", w.Err(), errFull)
	}
	if got := dst.buf.String(); got != "a1 b\n" {
		t.Fatalf("wrote %q, want %q", got, "a1 b\n")
	}
}
