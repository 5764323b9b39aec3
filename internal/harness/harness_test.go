package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyRunner builds a Tiny-scale runner with a temp artifact dir.
func tinyRunner(t *testing.T) (*Runner, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	r := NewRunner(Tiny, t.TempDir(), &buf)
	return r, &buf
}

func TestParseScale(t *testing.T) {
	cases := map[string]Scale{"tiny": Tiny, "small": Small, "full": Full, "": Small}
	for in, want := range cases {
		got, err := ParseScale(in)
		if err != nil || got != want {
			t.Fatalf("ParseScale(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseScale("nope"); err == nil {
		t.Fatal("bad scale accepted")
	}
	if Tiny.String() != "tiny" || Small.String() != "small" || Full.String() != "full" {
		t.Fatal("scale names wrong")
	}
	if Scale(99).String() != "unknown" {
		t.Fatal("unknown scale name wrong")
	}
}

func TestProfilesValid(t *testing.T) {
	for _, s := range []Scale{Tiny, Small, Full} {
		p := ProfileFor(s)
		if err := p.Heatmap.Validate(); err != nil {
			t.Fatalf("%s heatmap config: %v", s, err)
		}
		if err := p.Model.Validate(); err != nil {
			t.Fatalf("%s model config: %v", s, err)
		}
		if p.Heatmap.Height != p.Model.ImageSize {
			t.Fatalf("%s: heatmap %d != model %d", s, p.Heatmap.Height, p.Model.ImageSize)
		}
		if p.Ops <= 0 || p.Epochs <= 0 || p.BatchSize <= 0 {
			t.Fatalf("%s: degenerate profile %+v", s, p)
		}
	}
}

func TestFig3WritesPNGs(t *testing.T) {
	r, buf := tinyRunner(t)
	res, err := r.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) != 5 {
		t.Fatalf("paths = %d", len(res.Paths))
	}
	for _, p := range res.Paths {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("missing png %s: %v", p, err)
		}
	}
	if !strings.Contains(buf.String(), "overlap") {
		t.Fatal("no overlap note in output")
	}
}

func TestFig14Histogram(t *testing.T) {
	r, buf := tinyRunner(t)
	res, err := r.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	if res.Benchmarks == 0 || len(res.Bins) != 20 {
		t.Fatalf("res %+v", res)
	}
	total := 0
	for _, b := range res.Bins {
		total += b.Count
	}
	if total != res.Benchmarks {
		t.Fatalf("histogram covers %d of %d", total, res.Benchmarks)
	}
	// The suite is skewed high, like the paper's SPEC population.
	if res.FracAbove65L1 < 0.5 {
		t.Fatalf("L1 fraction above 65%% = %v, want skew towards high hit rates", res.FracAbove65L1)
	}
	if !strings.Contains(buf.String(), "Figure 14") {
		t.Fatal("missing output header")
	}
}

func TestFig7EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	r, buf := tinyRunner(t)
	res, err := r.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range res.Rows {
		if !row.Excluded && (row.PredHit < 0 || row.PredHit > 1) {
			t.Fatalf("row %+v out of range", row)
		}
	}
	if !strings.Contains(buf.String(), "average absolute percentage difference") {
		t.Fatal("missing summary line")
	}
	// The model must be cached for reuse.
	if _, err := os.Stat(filepath.Join(r.ArtifactsDir, "tiny-fig7-rq1-mixed.cbgan")); err != nil {
		t.Fatalf("model not cached: %v", err)
	}
	// Re-running loads the cache (fast path).
	if _, err := r.Fig7(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "loaded cached model") {
		t.Fatal("cache not used on rerun")
	}
}

func TestFig8AndFig9ShareModel(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	r, buf := tinyRunner(t)
	res8, err := r.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(res8.Configs) != 4 {
		t.Fatalf("fig8 configs = %d", len(res8.Configs))
	}
	res9, err := r.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(res9.Configs) != 3 {
		t.Fatalf("fig9 configs = %d", len(res9.Configs))
	}
	if strings.Count(buf.String(), "[rq2] training") != 1 {
		t.Fatal("rq2 model trained more than once")
	}
}

func TestFig11Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	r, _ := tinyRunner(t)
	res, err := r.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BatchSizes) != 6 || len(res.Seconds) != 6 {
		t.Fatalf("res %+v", res)
	}
	if res.Speedup32 <= 0 {
		t.Fatalf("speedup %v", res.Speedup32)
	}
	for _, s := range res.Seconds {
		if s <= 0 {
			t.Fatalf("non-positive timing %v", s)
		}
	}
	// At tiny scale the per-call timings are single-digit milliseconds
	// and scheduler noise dominates, so only sanity-bound the ratio;
	// the Small-scale run in EXPERIMENTS.md shows the real speedup.
	if res.Seconds[len(res.Seconds)-1] > res.Seconds[0]*10 {
		t.Fatalf("batch-32 pathologically slower than batch-1: %v vs %v", res.Seconds[5], res.Seconds[0])
	}
}

func TestFig13Prefetcher(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	r, _ := tinyRunner(t)
	res, err := r.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range res.Rows {
		if row.SSIM < -1 || row.SSIM > 1 {
			t.Fatalf("SSIM %v out of range", row.SSIM)
		}
		if row.MSE < 0 {
			t.Fatalf("negative MSE %v", row.MSE)
		}
	}
}

func TestTable1Columns(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	r, buf := tinyRunner(t)
	res, err := r.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range res.Rows {
		for _, name := range []string{"tab-base", "tab-rd", "tab-ic", "hrd", "stm"} {
			if _, ok := row.Baselines[name]; !ok {
				t.Fatalf("row %s missing baseline %s", row.Group, name)
			}
		}
		if row.CBoxBest > row.CBoxWorst {
			t.Fatalf("best %v > worst %v", row.CBoxBest, row.CBoxWorst)
		}
		if row.CBoxAvg < row.CBoxBest || row.CBoxAvg > row.CBoxWorst {
			t.Fatalf("avg %v outside [best, worst]", row.CBoxAvg)
		}
	}
	if !strings.Contains(buf.String(), "Table 1") {
		t.Fatal("missing table header")
	}
}

func TestFig10RunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	r, _ := tinyRunner(t)
	res, err := r.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Combined) == 0 {
		t.Fatal("no combined results")
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	r, buf := tinyRunner(t)
	results, err := r.Ablations()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("ablations = %d", len(results))
	}
	for _, res := range results {
		if len(res.Points) != 4 {
			t.Fatalf("%s points = %d", res.Name, len(res.Points))
		}
		for _, p := range res.Points {
			if p.Average < 0 || p.Average > 100 {
				t.Fatalf("%s %s avg = %v", res.Name, p.Label, p.Average)
			}
		}
	}
	if !strings.Contains(buf.String(), "Ablation:") {
		t.Fatal("no ablation output")
	}
}

// TestResumeWithoutCheckpointStartsFresh: -resume before any
// checkpoint exists trains from scratch without a warning, while an
// unreadable checkpoint is still reported and ignored.
func TestResumeWithoutCheckpointStartsFresh(t *testing.T) {
	r, buf := tinyRunner(t)
	r.CheckpointEvery, r.Resume = 1, true
	cfg := r.trainConfig("m", 2, 1)
	if cfg.ResumeFrom != nil || cfg.Checkpoint.Path == "" {
		t.Fatalf("fresh resume: ResumeFrom %v, checkpoint path %q", cfg.ResumeFrom, cfg.Checkpoint.Path)
	}
	if strings.Contains(buf.String(), "warning") {
		t.Fatalf("missing checkpoint logged a warning:\n%s", buf)
	}
	if err := os.WriteFile(cfg.Checkpoint.Path, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if cfg = r.trainConfig("m", 2, 1); cfg.ResumeFrom != nil || !strings.Contains(buf.String(), "unusable checkpoint") {
		t.Fatalf("corrupt checkpoint: ResumeFrom %v, log:\n%s", cfg.ResumeFrom, buf)
	}
}
