package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupFunc builds everything a workload's measured phase needs from
// r.opt.seed.
type setupFunc func(r *run) (state, error)

// state is a set-up workload, measured one of two ways.
type state interface {
	// measure runs the discarded warm-up, calls r.ready, then runs
	// the untraced measured phase and sets every end-to-end metric
	// except setup_s and peak_rss_mib.
	measure(r *run) error
	// layers runs the traced phase: the fused calls replaced by
	// stage-by-stage calls wrapped in spans, plus the layer probes.
	layers(r *run) error
	// close releases servers, goroutines and temp stores.
	close() error
}

// workloadDef is a workload's set-up and the per-layer metrics its
// traced run must report; every other layer metric reads 0 on it.
type workloadDef struct {
	setup  setupFunc
	layers []string
}

var workloads = map[string]workloadDef{
	"truth-sweep":  {setupTruthSweep, truthSweepLayers},
	"offline-eval": {setupOfflineEval, offlineEvalLayers},
	"serve-fleet":  {setupServeFleet, serveFleetLayers},
	"train-epoch":  {setupTrainEpoch, trainEpochLayers},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run is one workload execution: its options, the values it reports
// and the operations it attempted and failed.
type run struct {
	opt  options
	spec *spec
	tr   *tracer
	// begin is when the process started.
	begin time.Time

	vals map[string]float64
	info map[string]any

	attempted, failed int
	failures          []string
}

func newRun(opt options, sp *spec, begin time.Time) *run {
	return &run{
		opt: opt, spec: sp, tr: newTracer(), begin: begin,
		vals: map[string]float64{}, info: map[string]any{},
	}
}

// set records a metric. A name BENCHMARK.json does not declare is a bug
// in the harness, not a measurement.
func (r *run) set(name string, v float64) {
	if !r.spec.declared(name) {
		panic("bench: metric " + name + " is not declared in BENCHMARK.json")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric %s is not finite", name)
		v = 0
	}
	r.vals[name] = v
}

// check counts one operation or correctness check, failed unless cond.
func (r *run) check(cond bool, format string, args ...any) {
	r.attempted++
	if !cond {
		r.fail(format, args...)
	}
}

func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// scaled shrinks a problem-size constant by -scale, keeping at least min.
func (r *run) scaled(n, min int) int {
	v := int(math.Round(float64(n) * r.opt.scale))
	if v < min {
		v = min
	}
	return v
}

// phase returns the measured time given to a share of -seconds.
func (r *run) phase(share float64) time.Duration {
	return time.Duration(r.opt.seconds * share * float64(time.Second))
}

// ready marks the first timed operation: everything from process start
// up to here — suites, traces, set-up training, dataset build, fleet
// start and the discarded warm-up — is setup_s.
func (r *run) ready() {
	r.set("setup_s", time.Since(r.begin).Seconds())
}

func (r *run) execute(setup setupFunc) error {
	st, err := setup(r)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	if r.opt.trace {
		err = st.layers(r)
	} else {
		err = st.measure(r)
	}
	if cerr := st.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if r.opt.trace {
		path := filepath.Join(r.opt.workDir, r.opt.workload+".trace.json")
		if r.opt.out != "" {
			path = filepath.Join(filepath.Dir(r.opt.out), r.opt.workload+".trace.json")
		}
		if err := r.tr.writeChrome(path); err != nil {
			return err
		}
		r.info["trace_file"] = path
	} else {
		rss, err := peakRSSMiB()
		if err != nil {
			return err
		}
		r.set("peak_rss_mib", rss)
	}
	return nil
}

// repeatFor runs pass until d has elapsed, always at least twice, and
// returns the seconds each pass reports for itself (a pass may leave
// clean-up out of its own time). Every pass does identical work, so the
// median over passes is a steady rate and the spread is on show.
func repeatFor(d time.Duration, pass func() (float64, error)) ([]float64, error) {
	var walls []float64
	start := time.Now()
	for len(walls) < 2 || time.Since(start) < d {
		w, err := pass()
		if err != nil {
			return nil, err
		}
		walls = append(walls, w)
	}
	return walls, nil
}

// timed runs fn and returns its wall seconds.
func timed(fn func() error) (float64, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0).Seconds(), err
}

// medianRate is work per pass divided by the median pass time.
func medianRate(work float64, walls []float64) float64 {
	return work / median(walls)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// itemQuantile is a quantile over a fixed list of unlike items, each
// timed once per pass: every item's median over the passes first, then
// the quantile across items. Pooling the raw samples instead would put a
// percentile between two items' clusters, where it follows whichever
// cluster's edge moved.
func itemQuantile(byItem [][]float64, q float64) float64 {
	meds := make([]float64, len(byItem))
	for i, xs := range byItem {
		meds[i] = median(xs)
	}
	return quantile(meds, q)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// procField reads the number after key in a /proc/self file of
// "key: value" lines.
func procField(file, key string) (float64, error) {
	data, err := os.ReadFile("/proc/self/" + file)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 2 && fields[0] == key {
			return strconv.ParseFloat(fields[1], 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/self/%s", key, file)
}

// peakRSSMiB reads this process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	kib, err := procField("status", "VmHWM:")
	return kib / 1024, err
}

// readChars is how many bytes this process's read calls have returned
// so far, page cache or not.
func readChars() (float64, error) {
	return procField("io", "rchar:")
}
