// Package sticky is the output writer of the command-line tools: it
// keeps the first write error and turns every later write into a
// no-op, so a command prints without checking each line and reports a
// failed stdout or stderr once, at exit.
package sticky

import (
	"fmt"
	"io"
)

// Writer wraps an io.Writer with a sticky error.
type Writer struct {
	w   io.Writer
	err error
}

// New returns a Writer over w.
func New(w io.Writer) *Writer { return &Writer{w: w} }

// Write writes p unless an earlier write failed, and returns the first
// error either way.
func (s *Writer) Write(p []byte) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	var n int
	n, s.err = s.w.Write(p)
	return n, s.err
}

// Printf formats to the writer.
func (s *Writer) Printf(format string, args ...any) {
	if s.err == nil {
		_, s.err = fmt.Fprintf(s.w, format, args...)
	}
}

// Println formats to the writer, as fmt.Println does.
func (s *Writer) Println(args ...any) {
	if s.err == nil {
		_, s.err = fmt.Fprintln(s.w, args...)
	}
}

// Err returns the first write error, or nil.
func (s *Writer) Err() error { return s.err }
