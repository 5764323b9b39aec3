package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
)

// compareFiles compares two sets of result files, a (the base) and b,
// on every (workload, end-to-end metric) pairing, by the bounds of
// BENCHMARK.json. It returns exit code 1 when any row is worse or more
// operations failed on side b.
//
// A row is unresolved when a side holds several runs whose own spread
// (interquartile range over its median) exceeds the bound, unless every
// run of b reads better than every run of a. setup_s is not judged
// while both medians are below setupFloorS. Sides that were not run
// alike, with the same -scale, -seconds and seeds, are refused.
func compareFiles(w io.Writer, sp *spec, aList, bList string) (int, error) {
	a, err := loadSide(aList)
	if err != nil {
		return 0, err
	}
	b, err := loadSide(bList)
	if err != nil {
		return 0, err
	}
	if err := sameSettings(a, b); err != nil {
		return 0, err
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median [min..max] n\tb median [min..max] n\tb/a\tbound\tverdict")
	code := 0
	row := func(workload string, m specMetric, va, vb []float64) {
		verdict := judge(m, va, vb)
		if verdict == "worse" {
			code = 1
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%.4f of %.6g\t%.2f\t%s\n",
			workload, m.Name, m.Unit, describe(va), describe(vb), median(vb)/median(va), median(va), *m.Bound, verdict)
	}
	for _, wl := range sp.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range sp.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			if quantile(va, 0) <= 0 || quantile(vb, 0) <= 0 {
				return 0, fmt.Errorf("%s %s: a value is not positive", wl.Name, m.Name)
			}
			row(wl.Name, m, va, vb)
		}
		// offline-eval's accuracy rides in the run's context, because
		// only that workload can define it.
		if va, vb := infoValues(ra, maeMetric.Name), infoValues(rb, maeMetric.Name); len(va) > 0 && len(vb) > 0 {
			row(wl.Name, maeMetric, va, vb)
		}
		fa, fb := failedFrac(ra), failedFrac(rb)
		verdict := "unchanged"
		if fb > fa {
			verdict, code = "worse", 1
		}
		fmt.Fprintf(tw, "%s\tfailed_frac\tratio\t%.6g\t%.6g\t\t0\t%s\n", wl.Name, fa, fb, verdict)
	}
	if err := tw.Flush(); err != nil {
		return 0, err
	}
	return code, nil
}

// loadSide reads a comma-separated set of result files and groups its
// untraced runs by workload.
func loadSide(list string) (map[string][]runRecord, error) {
	side := map[string][]runRecord{}
	for _, path := range strings.Split(list, ",") {
		rf, err := readResultFile(path)
		if err != nil {
			return nil, err
		}
		for _, run := range rf.Runs {
			if run.Trace == 0 {
				side[run.Workload] = append(side[run.Workload], run)
			}
		}
	}
	return side, nil
}

// sameSettings refuses sides whose runs are not comparable: one -scale
// and one -seconds throughout, and per workload the same seeds on both.
func sameSettings(a, b map[string][]runRecord) error {
	var first *runRecord
	for _, side := range []map[string][]runRecord{a, b} {
		for _, runs := range side {
			for i := range runs {
				if first == nil {
					first = &runs[i]
				}
				if runs[i].Scale != first.Scale || runs[i].Seconds != first.Seconds {
					return fmt.Errorf("runs differ in -scale or -seconds: %s at %g/%g s, %s at %g/%g s",
						first.Workload, first.Scale, first.Seconds, runs[i].Workload, runs[i].Scale, runs[i].Seconds)
				}
			}
		}
	}
	for name, ra := range a {
		if rb, ok := b[name]; ok && fmt.Sprint(seeds(ra)) != fmt.Sprint(seeds(rb)) {
			return fmt.Errorf("%s: side a ran seeds %v, side b %v", name, seeds(ra), seeds(rb))
		}
	}
	return nil
}

func seeds(runs []runRecord) []int64 {
	out := make([]int64, len(runs))
	for i, run := range runs {
		out[i] = run.Seed
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// setupFloorS: below this much set-up, milliseconds of jitter are a
// large share and nobody waits on the difference.
const setupFloorS = 0.5

// maeMetric is hitrate_mae_pp as -compare judges it.
var maeMetric = func() specMetric {
	bound := evalMAEBound
	return specMetric{Name: "hitrate_mae_pp", Unit: "pp", Better: "lower", Bound: &bound}
}()

// infoValues collects a number the runs carry in their context.
func infoValues(runs []runRecord, name string) []float64 {
	var vs []float64
	for _, run := range runs {
		if v, ok := run.Info[name].(float64); ok {
			vs = append(vs, v)
		}
	}
	return vs
}

func values(runs []runRecord, name string) []float64 {
	var vs []float64
	for _, run := range runs {
		if m, ok := run.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

func failedFrac(runs []runRecord) float64 {
	attempted, failed := 0, 0
	for _, run := range runs {
		attempted += run.Attempted
		failed += run.Failed
	}
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

func describe(vs []float64) string {
	return fmt.Sprintf("%.6g [%.6g..%.6g] %d", median(vs), quantile(vs, 0), quantile(vs, 1), len(vs))
}

func judge(m specMetric, va, vb []float64) string {
	ma, mb := median(va), median(vb)
	if m.Name == "setup_s" && ma < setupFloorS && mb < setupFloorS {
		return "unchanged"
	}
	// worse is how far b's median lies on the bad side of a's, as a
	// share of a's.
	worse := (mb - ma) / ma
	if m.Better == "higher" {
		worse = -worse
	}
	bound := *m.Bound
	noisy := spread(va) > bound || spread(vb) > bound
	if noisy && !allBetter(m, va, vb) {
		return "unresolved"
	}
	switch {
	case worse > bound:
		return "worse"
	case worse < -bound:
		return "better"
	}
	return "unchanged"
}

// spread is a side's own run-to-run spread: the distance between its
// quartiles as a share of its median, which is how the driver and the
// choosing-metrics guide take it.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	return (quantile(vs, 0.75) - quantile(vs, 0.25)) / median(vs)
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(m specMetric, va, vb []float64) bool {
	if m.Better == "higher" {
		return quantile(vb, 0) > quantile(va, 1)
	}
	return quantile(vb, 1) < quantile(va, 0)
}
