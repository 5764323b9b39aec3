// Package obs is CacheBox's execution-tracing and profiling layer: a
// stdlib-only hierarchical span API whose disabled path costs nothing.
//
// A span measures one named stage of work:
//
//	ctx, sp := obs.Start(ctx, "sim.run")
//	defer sp.End()
//
// With no collector installed (the default), Start returns a nil span
// and the unchanged context — zero allocations, one atomic load — so
// instrumentation can stay in hot paths permanently. Installing a
// Collector (see collector.go) turns the same calls into real
// measurements feeding two sinks:
//
//   - per-span-name latency histograms, registered in the process-wide
//     metrics.Runtime registry (family cachebox_span_seconds) and thus
//     exported through cbx-serve's existing GET /metrics endpoint;
//   - optionally, Chrome trace-event JSON loadable in chrome://tracing
//     or Perfetto, written with Collector.WriteFile.
//
// Hierarchy travels through context.Context: a span started from a
// context carrying a parent span inherits the parent's track (tid), so
// the Chrome trace nests children under their root span's timeline.
// Spans may start and end on different goroutines (the serving layer's
// queue-wait span does), but each span must be ended exactly once.
//
// For leaf kernels too hot for context plumbing (GEMM, im2col) there
// is StartLeaf: a value-typed timer that feeds only the histogram
// sink and never allocates, enabled or not.
package obs

import (
	"context"
	"strconv"
	"sync/atomic"
	"time"
)

// active holds the installed collector; nil means tracing is disabled
// and Start/StartLeaf take their zero-cost path.
var active atomic.Pointer[Collector]

// Install makes c the process-wide collector receiving every span.
// Passing nil disables collection (the default state).
func Install(c *Collector) { active.Store(c) }

// Installed returns the current collector, or nil when disabled.
func Installed() *Collector { return active.Load() }

// spanKey carries the innermost open span through a context.
type spanKey struct{}

// Span is one timed stage of work. The nil *Span returned by Start on
// the disabled path accepts every method as a no-op, so callers never
// branch on enablement.
type Span struct {
	c     *Collector
	name  string
	start time.Time
	tid   uint64
	args  []spanArg
}

type spanArg struct{ k, v string }

// Start begins a span named name. When a collector is installed the
// returned context carries the span so children nest under its track;
// when disabled, the original context and a nil span come back with no
// allocation. End the span exactly once (cbx-lint's span-leak analyzer
// enforces End in the starting function unless the span escapes).
func Start(ctx context.Context, name string) (context.Context, *Span) {
	c := active.Load()
	if c == nil {
		return ctx, nil
	}
	tid := c.tidFor(ctx)
	sp := &Span{c: c, name: name, start: time.Now(), tid: tid}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// tidFor picks the Chrome-trace track for a new span: the parent
// span's track when ctx carries one, else a fresh track.
func (c *Collector) tidFor(ctx context.Context) uint64 {
	if p, ok := ctx.Value(spanKey{}).(*Span); ok && p != nil {
		return p.tid
	}
	return c.tids.Add(1)
}

// Tag attaches a key/value argument rendered into the trace event's
// args block. No-op on nil spans.
func (s *Span) Tag(key, value string) {
	if s == nil {
		return
	}
	s.args = append(s.args, spanArg{k: key, v: value})
}

// TagInt is Tag for integer values.
func (s *Span) TagInt(key string, value int) {
	if s == nil {
		return
	}
	s.args = append(s.args, spanArg{k: key, v: strconv.Itoa(value)})
}

// End completes the span, recording its duration into the installed
// collector's sinks. Safe on nil spans; call exactly once otherwise.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.c.record(s.name, s.start, time.Since(s.start), s.tid, s.args)
}

// Leaf is a value-typed timer for hot leaf kernels: it feeds only the
// per-name histogram sink (no trace event, no track, no context) and
// performs no heap allocation whether or not a collector is installed.
type Leaf struct {
	c     *Collector
	name  string
	start time.Time
}

// StartLeaf begins a leaf measurement. The zero Leaf (returned when
// disabled) makes End a no-op.
func StartLeaf(name string) Leaf {
	c := active.Load()
	if c == nil {
		return Leaf{}
	}
	return Leaf{c: c, name: name, start: time.Now()}
}

// End records the leaf duration into the histogram sink.
func (l Leaf) End() {
	if l.c == nil {
		return
	}
	l.c.observe(l.name, time.Since(l.start).Seconds())
}
