package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI invokes the driver as the shell would and returns its output.
func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(args, &buf)
	return buf.String(), err
}

func TestBuildLsStatVerify(t *testing.T) {
	root := filepath.Join(t.TempDir(), "store")
	out, err := runCLI(t, "-root", root, "build",
		"-name", "smoke", "-suites", "spec,zipf", "-groups", "2", "-phases", "2",
		"-ops", "1500", "-size-scale", "0.25", "-cache", "16x2,64x4",
		"-heatmap", "8x8", "-window", "120", "-max-windows", "5", "-shard-windows", "3", "-j", "2")
	if err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	if !strings.Contains(out, "built ") || !strings.Contains(out, `dataset "smoke"`) {
		t.Fatalf("build output:\n%s", out)
	}
	digest := strings.Fields(strings.TrimPrefix(out, "built "))[0]

	out, err = runCLI(t, "-root", root, "ls")
	if err != nil {
		t.Fatalf("ls: %v\n%s", err, out)
	}
	if !strings.Contains(out, "smoke") || !strings.Contains(out, digest) {
		t.Fatalf("ls output missing dataset:\n%s", out)
	}

	out, err = runCLI(t, "-root", root, "stat", digest)
	if err != nil {
		t.Fatalf("stat: %v\n%s", err, out)
	}
	for _, want := range []string{"BENCH", "16x2-lru", "64x4-lru", "WINDOWS"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stat output missing %q:\n%s", want, out)
		}
	}

	out, err = runCLI(t, "-root", root, "verify", digest)
	if err != nil {
		t.Fatalf("verify: %v\n%s", err, out)
	}
	if !strings.Contains(out, "ok: ") {
		t.Fatalf("verify output:\n%s", out)
	}
}

func TestSampledBuildReportsMode(t *testing.T) {
	root := filepath.Join(t.TempDir(), "store")
	out, err := runCLI(t, "-root", root, "build",
		"-name", "thin", "-suites", "spec", "-groups", "2", "-phases", "2",
		"-ops", "1500", "-cache", "16x2", "-heatmap", "8x8", "-window", "120",
		"-sample", "-sample-k", "3", "-sample-seed", "11")
	if err != nil {
		t.Fatalf("sampled build: %v\n%s", err, out)
	}
	if !strings.Contains(out, "sampled") {
		t.Fatalf("sampled build output missing mode:\n%s", out)
	}
	lsOut, err := runCLI(t, "-root", root, "ls")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(lsOut, "sampled:k=3") {
		t.Fatalf("ls output missing sampling mode:\n%s", lsOut)
	}
}

func TestBadArguments(t *testing.T) {
	root := filepath.Join(t.TempDir(), "store")
	for _, args := range [][]string{
		{"-root", root},
		{"-root", root, "frobnicate"},
		{"-root", root, "build", "-cache", "sixty-four"},
		{"-root", root, "build", "-suites", "nope"},
		{"-root", root, "build", "-heatmap", "16"},
		{"-root", root, "stat"},
		{"-root", root, "verify", "deadbeef"},
	} {
		if _, err := runCLI(t, args...); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}
