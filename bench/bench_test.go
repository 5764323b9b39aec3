package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

const (
	specPath   = "../BENCHMARK.json"
	smokeScale = "0.02"
)

// runBench runs one invocation in-process and returns its exit code
// and its standard output.
func runBench(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"-spec", specPath, "-workdir", t.TempDir()}, args...)
	code := realMain(time.Now(), args, &stdout, &stderr)
	if stderr.Len() > 0 {
		t.Logf("stderr: %s", stderr.String())
	}
	return code, stdout.String()
}

// lastLine decodes the final line of a run's output twice: as raw keys,
// to hold it to exactly the contract's four, and as a Result.
func lastLine(t *testing.T, out string) (map[string]json.RawMessage, Result) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var keys map[string]json.RawMessage
	var res Result
	for _, v := range []any{&keys, &res} {
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), v); err != nil {
			t.Fatalf("last line: %v\n%s", err, out)
		}
	}
	return keys, res
}

// TestSmoke runs every workload at ~1/50 size, untraced and traced, and
// holds the output to the contract: the last line has exactly the four
// keys, every metric BENCHMARK.json declares for the mode is present
// with its unit, and nothing outlives the run.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range sp.Workloads {
		for _, trace := range []string{"0", "1"} {
			if trace == "1" && testing.Short() {
				continue
			}
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				before := runtime.NumGoroutine()
				code, out := runBench(t, "-workload", w.Name, "-seconds", "0.2", "-scale", smokeScale, "-trace", trace)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, out)
				}
				keys, res := lastLine(t, out)
				checkResultLine(t, sp, keys, res, trace == "1")
				if trace == "1" && (w.Name == "truth-sweep" || w.Name == "offline-eval") {
					if share := res.Metrics["trace_attributed_share"].Value; share < 0.9 || share > 1 {
						t.Errorf("stage spans cover %.3f of the traced wall, want 0.90..1.00", share)
					}
				}
				// Servers, health gates and load generators must be gone.
				deadline := time.Now().Add(3 * time.Second)
				for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
					time.Sleep(10 * time.Millisecond)
				}
				if n := runtime.NumGoroutine(); n > before {
					buf := make([]byte, 1<<16)
					t.Errorf("%d goroutines before the workload, %d after\n%s", before, n, buf[:runtime.Stack(buf, true)])
				}
			})
		}
	}
}

func checkResultLine(t *testing.T, sp *spec, keys map[string]json.RawMessage, res Result, traced bool) {
	t.Helper()
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[key]; !ok {
			t.Errorf("last line lacks %q", key)
		}
	}
	if len(keys) != 4 {
		t.Errorf("last line has %d keys, want exactly 4", len(keys))
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	declared := sp.EndToEnd
	if traced {
		declared = sp.PerLayer
	}
	if len(res.Metrics) != len(declared) {
		t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(declared))
	}
	for _, d := range declared {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("metric %s has unit %q, declared %q", d.Name, m.Unit, d.Unit)
		case !traced && m.Value <= 0:
			t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, m.Value)
		}
	}
}

// TestCorruptGolden: a golden that disagrees with the simulator, or a
// hit-rate error beyond its golden's bound, must count as failed
// operations and a non-zero exit.
func TestCorruptGolden(t *testing.T) {
	orig := readGolden
	defer func() { readGolden = orig }()
	corrupt := map[string]func(data []byte) ([]byte, error){
		"truth-sweep": func(data []byte) ([]byte, error) {
			var g sweepGolden
			if err := json.Unmarshal(data, &g); err != nil {
				return nil, err
			}
			g.Items[0].Windows++
			g.Levels[0].Levels[0][1]++
			return json.Marshal(g)
		},
		// The model's error is twice what the golden allows.
		"offline-eval": func(data []byte) ([]byte, error) {
			var g evalGolden
			if err := json.Unmarshal(data, &g); err != nil {
				return nil, err
			}
			g.MAEpp /= 2
			return json.Marshal(g)
		},
	}
	for workload, damage := range corrupt {
		t.Run(workload, func(t *testing.T) {
			readGolden = func(name string) ([]byte, error) {
				data, err := orig(name)
				if err != nil {
					return nil, err
				}
				return damage(data)
			}
			code, out := runBench(t, "-workload", workload, "-seconds", "0.2", "-scale", smokeScale)
			if code == 0 {
				t.Fatalf("exit 0 with a corrupted golden\n%s", out)
			}
			if _, res := lastLine(t, out); res.Correct || res.Failed == 0 {
				t.Errorf("correct=%v failed=%d with a corrupted golden", res.Correct, res.Failed)
			}
		})
	}
}

// TestSpecContract holds BENCHMARK.json to the limits the driver
// refuses a file outside of.
func TestSpecContract(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sp.Command); n < 1 || n > 32 {
		t.Errorf("command has %d strings", n)
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(sp.Paths); n < 1 || n > 16 {
		t.Errorf("%d paths", n)
	}
	// Every per-layer metric is on some workload's list, so none is a
	// row of zeros, and every listed name is declared.
	listed := map[string]bool{}
	for _, w := range sp.Workloads {
		def, ok := workloads[w.Name]
		if !ok {
			t.Errorf("declared workload %s is not implemented", w.Name)
		}
		for _, name := range def.layers {
			listed[name] = true
			if !sp.declared(name) {
				t.Errorf("%s lists layer metric %s, which BENCHMARK.json does not declare", w.Name, name)
			}
		}
	}
	for _, m := range sp.PerLayer {
		if !listed[m.Name] {
			t.Errorf("per-layer metric %s is on no workload's list", m.Name)
		}
	}
	if info, err := os.Stat(specPath); err != nil || info.Size() > 64<<10 {
		t.Errorf("BENCHMARK.json: %v, size limit 64 KiB", err)
	}
}

func TestCompare(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	n := 0
	// write makes a one-run result file of seed 1; edit adjusts the run.
	write := func(accesses, setup float64, edit func(*runRecord)) string {
		rec := runRecord{Workload: "offline-eval", Seed: 1, Seconds: 20, Scale: 1,
			Result: Result{Correct: true, Attempted: 100, Metrics: map[string]metricValue{
				"accesses_per_s": {Value: accesses, Unit: "accesses/s"},
				"setup_s":        {Value: setup, Unit: "s"},
			}},
			Info: map[string]any{"hitrate_mae_pp": 10.0},
		}
		if edit != nil {
			edit(&rec)
		}
		n++
		path := filepath.Join(dir, fmt.Sprintf("%d.json", n))
		if err := writeResultFile(path, []runRecord{rec}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	pair := func(x, y float64, setup float64) string {
		return write(x, setup, nil) + "," + write(y, setup, nil)
	}
	a := pair(100, 102, 0.10)
	cases := []struct {
		name  string
		a, b  string
		code  int
		want  []string
		wrong []string
	}{
		{"same", a, pair(101, 99, 0.10), 0, []string{"unchanged"}, []string{"worse", "better", "unresolved"}},
		{"slower", a, pair(60, 61, 0.10), 1, []string{"worse"}, nil},
		{"faster", a, pair(150, 151, 0.10), 0, []string{"better"}, nil},
		{"noisy", a, pair(70, 130, 0.10), 0, []string{"unresolved"}, nil},
		// Set-up doubles but stays under the floor: not judged.
		{"setup under floor", a, pair(100, 102, 0.20), 0, nil, []string{"worse"}},
		{"setup over floor", pair(100, 102, 1), pair(100, 102, 2), 1, []string{"worse"}, nil},
		{"less accurate", a, write(100, 0.10, func(r *runRecord) { r.Info["hitrate_mae_pp"] = 12.0 }) + "," +
			write(102, 0.10, func(r *runRecord) { r.Info["hitrate_mae_pp"] = 12.0 }), 1, []string{"hitrate_mae_pp", "worse"}, nil},
		{"other seed", a, write(100, 0.10, func(r *runRecord) { r.Seed = 2 }) + "," + write(102, 0.10, nil), 2, nil, nil},
		{"other seconds", a, write(100, 0.10, func(r *runRecord) { r.Seconds = 10 }) + "," + write(102, 0.10, nil), 2, nil, nil},
		{"other scale", a, write(100, 0.10, func(r *runRecord) { r.Scale = 0.02 }) + "," + write(102, 0.10, nil), 2, nil, nil},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		code := realMain(time.Now(), []string{"-spec", specPath, "-compare", c.a, c.b}, &stdout, &stderr)
		out := stdout.String()
		if code != c.code {
			t.Errorf("%s: exit %d, want %d\n%s%s", c.name, code, c.code, out, stderr.String())
		}
		for _, w := range c.want {
			if !strings.Contains(out, w) {
				t.Errorf("%s: output lacks %q\n%s", c.name, w, out)
			}
		}
		for _, w := range c.wrong {
			if strings.Contains(out, w) {
				t.Errorf("%s: output has %q\n%s", c.name, w, out)
			}
		}
	}
	// More failures on side b is worse whatever the speeds.
	failing := write(100, 0.10, func(r *runRecord) { r.Failed = 3 }) + "," + write(102, 0.10, nil)
	var out bytes.Buffer
	if code, err := compareFiles(&out, sp, a, failing); err != nil || code != 1 || !strings.Contains(out.String(), "failed_frac") {
		t.Errorf("failing: exit %d, err %v\n%s", code, err, out.String())
	}
}

func TestSelfSeconds(t *testing.T) {
	tr := newTracer()
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	tr.spans = []span{
		{Name: "root", Start: 0, End: ms(100), Parent: -1},
		{Name: "a", Start: ms(10), End: ms(40), Parent: 0},
		{Name: "b", Start: ms(40), End: ms(90), Parent: 0},
		{Name: "a", Start: ms(50), End: ms(60), Parent: 2},
	}
	self := tr.selfSeconds(0)
	for name, want := range map[string]float64{"root": 0.020, "a": 0.040, "b": 0.040} {
		if got := self[name]; got < want-1e-9 || got > want+1e-9 {
			t.Errorf("self[%s] = %v, want %v", name, got, want)
		}
	}
}
