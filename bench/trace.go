package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"cachebox/internal/obs"
)

// tracer keeps the traced run's spans in memory and writes them out
// when the run ends. Spans are recorded from this package, around the
// calls into each layer; the program's own obs spans are read only as
// the supplementary obs.* rows.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed call into a layer. Name is the layer (module) name,
// Parent the index of the span that caused it (-1 for a root) and Item
// the workload item (benchmark × geometry row, request, ...) it belongs to.
type span struct {
	Name       string
	Start, End time.Duration
	Parent     int
	Item       int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) start(name string, parent, item int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0), Parent: parent, Item: item})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// in times fn as a child span of parent.
func (t *tracer) in(name string, parent, item int, fn func()) {
	id := t.start(name, parent, item)
	fn()
	t.end(id)
}

// seconds is a finished span's duration.
func (t *tracer) seconds(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return (t.spans[id].End - t.spans[id].Start).Seconds()
}

// selfSeconds sums, per span name, the self time of every span in the
// tree under root: a span's duration minus the part of it its child
// spans cover.
func (t *tracer) selfSeconds(root int) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], i)
	}
	self := make(map[string]float64)
	var walk func(id int)
	walk = func(id int) {
		s := t.spans[id]
		kids := children[id]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered := time.Duration(0)
		edge := s.Start
		for _, k := range kids {
			ks, ke := t.spans[k].Start, t.spans[k].End
			if ks < edge {
				ks = edge
			}
			if ke > s.End {
				ke = s.End
			}
			if ke > ks {
				covered += ke - ks
				edge = ke
			}
			walk(k)
		}
		self[s.Name] += (s.End - s.Start - covered).Seconds()
	}
	walk(root)
	return self
}

// writeChrome writes the spans as Chrome trace-event JSON, the format
// obs.Collector writes, loadable in chrome://tracing or Perfetto.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: 1,
			Args: map[string]int{"id": i, "parent": s.Parent, "item": s.Item},
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanSums reads the program's own cachebox_span_seconds sums for the
// obs span names that are metricOf's keys.
func spanSums(metricOf map[string]string) map[string]float64 {
	out := make(map[string]float64, len(metricOf))
	for name := range metricOf {
		out[name] = obs.SpanHistogram().With(name).Sum()
	}
	return out
}

// setObs reports, under metricOf's names, how much each obs span's sum
// grew since before.
func setObs(r *run, before map[string]float64, metricOf map[string]string) {
	after := spanSums(metricOf)
	for name, metric := range metricOf {
		r.set(metric, after[name]-before[name])
	}
}
