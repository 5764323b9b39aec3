package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// spec is BENCHMARK.json: the one declaration of workloads, metrics,
// units, directions and regression bounds. The harness reads names
// and units from it instead of repeating them, so a metric exists in
// exactly one place.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the baseline's median by which an
	// end-to-end metric may worsen; per-layer metrics have none.
	Bound *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := sp.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

func (sp *spec) validate() error {
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1..60", sp.RunSeconds)
	}
	if n := len(sp.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2..8", n)
	}
	seen := map[string]bool{}
	use := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("bad name %q", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range sp.Workloads {
		if err := use(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %s: why must be 1..200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range sp.EndToEnd {
		if err := use(m.Name); err != nil {
			return err
		}
		if err := m.validate(); err != nil {
			return err
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			return fmt.Errorf("metric %s: bound must be in (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		return fmt.Errorf("end_to_end needs setup_s with unit s, better lower")
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per_layer metrics, want 1..128", n)
	}
	for _, m := range sp.PerLayer {
		if err := use(m.Name); err != nil {
			return err
		}
		if err := m.validate(); err != nil {
			return err
		}
		if m.Bound != nil {
			return fmt.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	return nil
}

func (m specMetric) validate() error {
	if !unitRE.MatchString(m.Unit) {
		return fmt.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
	}
	if m.Better != "lower" && m.Better != "higher" {
		return fmt.Errorf("metric %s: better must be lower or higher", m.Name)
	}
	return nil
}

func (sp *spec) hasWorkload(name string) bool {
	for _, w := range sp.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// declared reports whether name is a metric of the spec.
func (sp *spec) declared(name string) bool {
	for _, m := range sp.EndToEnd {
		if m.Name == name {
			return true
		}
	}
	for _, m := range sp.PerLayer {
		if m.Name == name {
			return true
		}
	}
	return false
}

// names lists the names of ms in order.
func (sp *spec) names(ms []specMetric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}
