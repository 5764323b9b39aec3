package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"cachebox/internal/store"
)

// childEnv turns the test binary into cbx-experiments: TestMain hands
// the arguments to run instead of running tests. Every golden cell is
// therefore its own process, which is where bugs such as gob type IDs
// allocated in first-encode order show up.
const childEnv = "CBX_EXPERIMENTS_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// experiments runs tiny fig3, fig7 and fig8 in a child process and
// returns its stdout.
func experiments(t *testing.T, args ...string) string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, append([]string{"-scale", "tiny", "-run", "fig3,fig7,fig8"}, args...)...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("cbx-experiments %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String()
}

// hashes returns the SHA-256 of every fig3 PNG and model file under an
// artifacts directory, keyed by slash path as in testdata/golden.json.
func hashes(t *testing.T, dir string) map[string]string {
	t.Helper()
	pngs, err := filepath.Glob(filepath.Join(dir, "fig3", "*.png"))
	if err != nil {
		t.Fatal(err)
	}
	models, err := filepath.Glob(filepath.Join(dir, "*.cbgan"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, path := range append(pngs, models...) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		out[filepath.ToSlash(rel)] = hex.EncodeToString(sum[:])
	}
	return out
}

// mismatches lists, sorted, the files whose hashes differ between got
// and want or that only one side has.
func mismatches(got, want map[string]string) []string {
	var bad []string
	for name, sum := range want {
		if got[name] != sum {
			bad = append(bad, name)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			bad = append(bad, name)
		}
	}
	sort.Strings(bad)
	return bad
}

// TestGolden runs the same tiny figures as separate processes at -j 1
// and -j 8, with and without a store, then once more against a warm
// store. Every cold cell must produce the same bytes, pinned on amd64
// (where they were recorded) to testdata/golden.json.
func TestGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	at := func(name string) string { return filepath.Join(dir, name) }

	cells := []struct {
		name string
		args []string
	}{
		{"j1-store", []string{"-j", "1", "-store", at("store-j1")}},
		{"j8-store", []string{"-j", "8", "-store", at("store-j8")}},
		{"j1-no-store", []string{"-j", "1", "-no-store"}},
		{"j8-no-store-traced", []string{"-j", "8", "-no-store", "-trace", at("trace.json")}},
	}
	var first map[string]string
	for _, c := range cells {
		experiments(t, append(c.args, "-artifacts", at(c.name))...)
		got := hashes(t, at(c.name))
		if first == nil {
			first = got
		} else if bad := mismatches(got, first); len(bad) > 0 {
			t.Errorf("cell %s differs from %s in %v", c.name, cells[0].name, bad)
		}
		if runtime.GOARCH == "amd64" {
			if bad := mismatches(got, golden); len(bad) > 0 {
				t.Errorf("cell %s differs from testdata/golden.json in %v", c.name, bad)
			}
		}
	}

	// The warm cell reuses the -j 1 cell's store with fresh artifacts:
	// every result must come from the store, with no simulator run.
	out := experiments(t, "-j", "1", "-store", at("store-j1"), "-artifacts", at("warm"))
	for _, want := range []string{" misses=0 ", " sim_runs=0 "} {
		if !strings.Contains(out, want) {
			t.Errorf("warm cell output lacks %q:\n%s", strings.TrimSpace(want), out)
		}
	}
	fig3 := maps.Clone(first)
	maps.DeleteFunc(fig3, func(name, _ string) bool { return !strings.HasPrefix(name, "fig3/") })
	if bad := mismatches(hashes(t, at("warm")), fig3); len(bad) > 0 {
		t.Errorf("warm cell fig3 differs in %v", bad)
	}
	st, err := store.Open(at("store-j1"))
	if err != nil {
		t.Fatal(err)
	}
	if corrupt, err := st.VerifyAll(); err != nil || len(corrupt) > 0 {
		t.Errorf("store verify: corrupt %v, err %v", corrupt, err)
	}

	// The traced cell's Chrome trace holds well-formed complete events
	// for every pipeline stage.
	data, err = os.ReadFile(at("trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, e := range trace.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 {
			t.Fatalf("trace event %+v, want ph X and dur >= 0", e)
		}
		names[e.Name] = true
	}
	for _, span := range []string{"harness.fig3", "stream.run", "heatmap.png", "model.predict"} {
		if !names[span] {
			t.Errorf("trace has no %s span", span)
		}
	}
}
