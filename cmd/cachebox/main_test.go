package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI runs one command line and returns its exit code and output.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String() + stderr.String()
}

// ok runs a command line that must succeed and print every want.
func ok(t *testing.T, args []string, want ...string) string {
	t.Helper()
	code, out := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("cachebox %v: exit %d\n%s", args, code, out)
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Fatalf("cachebox %v: output missing %q:\n%s", args, w, out)
		}
	}
	return out
}

// TestUsageErrors: each command rejects a bad command line with exit 2.
func TestUsageErrors(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	for _, args := range [][]string{
		{},
		{"frobnicate"},
		{"list", "-bogus"},
		{"trace", "-bogus"},
		{"simulate"},
		{"heatmap", "-n", "two"},
		{"train", "-save-model", "m.cbgan"},
		{"evaluate", "-batch", "x"},
		{"phases"},
		{"baseline"},
		{"baseline", "stats"},
		{"baseline", "reuse", "-max", "x", "-trace", "t.cbxt"},
		{"store", "-store", store},
		{"store", "-root", store, "ls"},
		{"store", "-store", store, "info"},
		{"store", "-store", store, "put"},
		{"dataset", "-store", store},
		{"dataset", "-store", store, "frobnicate"},
		{"dataset", "-store", store, "stat"},
	} {
		if code, out := runCLI(t, args...); code != 2 {
			t.Errorf("cachebox %v: exit %d, want 2\n%s", args, code, out)
		}
	}
	for _, args := range [][]string{{"-h"}, {"help"}, {"simulate", "-h"}} {
		if code, out := runCLI(t, args...); code != 0 {
			t.Errorf("cachebox %v: exit %d, want 0\n%s", args, code, out)
		}
	}
}

// TestFailures: well-formed command lines that fail exit 1.
func TestFailures(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	for _, args := range [][]string{
		{"simulate", "-trace", filepath.Join(dir, "missing.cbxt")},
		{"simulate", "-bench", "no/such-bench", "-ops", "1000"},
		{"simulate", "-bench", "x", "-cache", "64x12"},
		{"evaluate", "-model", filepath.Join(dir, "missing.cbgan")},
		{"dataset", "-store", store, "build", "-cache", "64x12"},
		{"dataset", "-store", store, "build", "-suites", "nope"},
		{"dataset", "-store", store, "build", "-heatmap", "16"},
		{"dataset", "-store", store, "verify", "deadbeef"},
	} {
		if code, out := runCLI(t, args...); code != 1 {
			t.Errorf("cachebox %v: exit %d, want 1\n%s", args, code, out)
		}
	}
}

func TestSimulatorCommands(t *testing.T) {
	dir := t.TempDir()
	out := ok(t, []string{"list", "-ops", "2000"}, "suite=")
	bench := strings.Fields(out)[0]
	tr := filepath.Join(dir, "t.cbxt")
	ok(t, []string{"trace", "-bench", bench, "-ops", "3000", "-o", tr}, "wrote "+tr)
	ok(t, []string{"simulate", "-trace", tr, "-cache", "16set-2way"}, "16set-2way policy=lru", "hit-rate=")
	ok(t, []string{"simulate", "-trace", tr, "-hierarchy", "16set-2way, 64set-4way"}, "L1 16set-2way", "L2 64set-4way")
	ok(t, []string{"heatmap", "-bench", bench, "-ops", "20000", "-o", dir, "-n", "1"}, "access-0.png", "true hit rate")
	ok(t, []string{"phases", "-trace", tr, "-interval", "500", "-k", "2"}, "phase 0", "simpoint estimate")
	ok(t, []string{"baseline", "stats", "-trace", tr}, "top strides")
	ok(t, []string{"baseline", "reuse", "-trace", tr, "-max", "64"}, "cold", "dist [")
	ok(t, []string{"baseline", "predict", "-trace", tr, "-cache", "16set-2way"}, "true miss rate", "tab-ic")
}

func TestTrainAndEvaluate(t *testing.T) {
	m := filepath.Join(t.TempDir(), "m.cbgan")
	ok(t, []string{"train", "-epochs", "0", "-o", m}, "(no training)")
	ok(t, []string{"evaluate", "-model", m, "-ops", "2000", "-j", "1"})
}

// TestResumeWithoutCheckpoint: -resume before a checkpoint exists
// trains from scratch, to the same bytes as a run without it.
func TestResumeWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	train := []string{"train", "-tiny", "-epochs", "1", "-max-benches", "1", "-ops", "5000", "-no-store"}
	fresh, resumed := filepath.Join(dir, "fresh.cbgan"), filepath.Join(dir, "resumed.cbgan")
	ok(t, append(train, "-o", fresh), "saved model")
	ok(t, append(train, "-o", resumed, "-resume"), "saved model")
	a, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("-resume without a checkpoint trained a different model")
	}
}

func TestStoreCommands(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	payload := filepath.Join(dir, "payload.bin")
	if err := os.WriteFile(payload, []byte("cbgan bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := ok(t, []string{"store", "-store", store, "put", "-input", "name=tiny", payload}, "kind=model", "name=tiny")
	digest := strings.Fields(strings.TrimPrefix(out, "stored "))[0]
	ok(t, []string{"store", "-store", store, "ls"}, digest, "model", "name=tiny")
	ok(t, []string{"store", "-store", store, "info", digest}, "kind:    model", "input:   name = tiny")
	if out := ok(t, []string{"store", "-store", store, "cat", digest}); out != "cbgan bytes" {
		t.Fatalf("cat: %q", out)
	}
	ok(t, []string{"store", "-store", store, "verify"}, "ok: 1 entries verified")
	ok(t, []string{"store", "-store", store, "gc", "-max-bytes", "1"}, "deleted 1")
	ok(t, []string{"store", "-store", store, "put", "-input", "name=tiny", payload})
	ok(t, []string{"store", "-store", store, "rm", digest}, "removed "+digest)
}

func TestDatasetBuildLsStatVerify(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	out := ok(t, []string{"dataset", "-store", store, "build",
		"-name", "smoke", "-suites", "spec,zipf", "-groups", "2", "-phases", "2",
		"-ops", "1500", "-size-scale", "0.25", "-cache", "16set-2way,64set-4way",
		"-heatmap", "8x8", "-window", "120", "-max-windows", "5", "-shard-windows", "3", "-j", "2"},
		"built ", `dataset "smoke"`)
	digest := strings.Fields(strings.TrimPrefix(out, "built "))[0]
	ok(t, []string{"dataset", "-store", store, "ls"}, "smoke", digest)
	ok(t, []string{"dataset", "-store", store, "stat", digest}, "BENCH", "16x2-lru", "64x4-lru", "WINDOWS")
	ok(t, []string{"dataset", "-store", store, "verify", digest}, "ok: ")
}

func TestDatasetSampledBuildReportsMode(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	ok(t, []string{"dataset", "-store", store, "build",
		"-name", "thin", "-suites", "spec", "-groups", "2", "-phases", "2",
		"-ops", "1500", "-cache", "16set-2way", "-heatmap", "8x8", "-window", "120",
		"-sample", "-sample-k", "3", "-sample-seed", "11"}, "sampled")
	ok(t, []string{"dataset", "-store", store, "ls"}, "sampled:k=3")
}
