// Command cbx-loadgen drives a cbx-gateway (or a single cbx-serve) with
// closed-loop prediction traffic and reports latency percentiles and
// throughput as JSON. BENCH_PR7.json is a frozen record of its output;
// current serving numbers come from bench/'s serve-fleet workload.
//
//	cbx-loadgen -url http://127.0.0.1:8090 -duration 10s -qps 200 \
//	    -concurrency 8 -conditions 64:12,128:8,256:4 -zipf-s 1.2 \
//	    -out bench.json -scrape -replicas 2
//
// Workers pick a (model, condition) pair per request — Zipf-skewed when
// -zipf-s > 1, uniform otherwise — so the shard ring sees a realistic
// hot-key distribution. With -qps 0 the loop is unpaced (each worker
// issues requests back to back); otherwise a token bucket paces the
// fleet to the target rate. With -scrape the gateway's /metrics is read
// after the run and hedge/shed/retry counters are folded into the
// report.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cachebox/internal/serve"
)

// result is one request's outcome.
type result struct {
	status  int
	latency time.Duration
	err     bool
}

// condition is one cache geometry in the request mix.
type condition struct{ sets, ways int }

// report is the emitted JSON document.
type report struct {
	URL         string  `json:"url"`
	Replicas    int     `json:"replicas,omitempty"`
	DurationSec float64 `json:"duration_sec"`
	QPSTarget   float64 `json:"qps_target"`
	Concurrency int     `json:"concurrency"`
	ZipfS       float64 `json:"zipf_s"`

	Requests    int            `json:"requests"`
	Errors      int            `json:"errors"`
	ByStatus    map[string]int `json:"by_status"`
	AchievedQPS float64        `json:"achieved_qps"`

	LatencyMs struct {
		P50 float64 `json:"p50"`
		P90 float64 `json:"p90"`
		P99 float64 `json:"p99"`
		Max float64 `json:"max"`
	} `json:"latency_ms"`

	Gateway map[string]float64 `json:"gateway_counters,omitempty"`
}

func main() {
	url := flag.String("url", "http://127.0.0.1:8090", "target base URL (gateway or single replica)")
	duration := flag.Duration("duration", 10*time.Second, "run length")
	qps := flag.Float64("qps", 0, "target request rate across all workers (0 = unpaced)")
	concurrency := flag.Int("concurrency", 8, "concurrent closed-loop workers")
	models := flag.String("models", "", "comma-separated model names (default: discover via /v1/models)")
	conditions := flag.String("conditions", "64:12,128:8,256:4", "comma-separated sets:ways cache geometries")
	zipfS := flag.Float64("zipf-s", 1.2, "Zipf skew over the (model, condition) mix; <=1 means uniform")
	seed := flag.Int64("seed", 1, "PRNG seed for the request mix")
	out := flag.String("out", "", "write the JSON report to this file (default stdout)")
	scrape := flag.Bool("scrape", false, "scrape the target's /metrics after the run for gateway counters")
	replicas := flag.Int("replicas", 0, "replica count annotation recorded in the report")
	flag.Parse()

	if err := run(*url, *duration, *qps, *concurrency, *models, *conditions, *zipfS, *seed, *out, *scrape, *replicas); err != nil {
		fmt.Fprintln(os.Stderr, "cbx-loadgen:", err)
		os.Exit(1)
	}
}

func run(url string, duration time.Duration, qps float64, concurrency int, modelsFlag, conditionsFlag string, zipfS float64, seed int64, out string, scrape bool, replicas int) error {
	conds, err := parseConditions(conditionsFlag)
	if err != nil {
		return err
	}
	names, size, err := resolveModels(url, modelsFlag)
	if err != nil {
		return err
	}

	// Pre-encode every (model, condition) request body once; workers
	// then only pick indices, keeping the hot loop allocation-light.
	bodies := make([][]byte, 0, len(names)*len(conds))
	pix := make([]float32, size*size)
	for i := range pix {
		pix[i] = float32((i*7)%23) / 2
	}
	for _, name := range names {
		for _, c := range conds {
			//lint:ignore determinism-taint a latency benchmark is wall-clock measurement by definition; its report is a measurement artifact, not a reproducible output
			b, err := json.Marshal(serve.PredictRequest{
				Model:  name,
				Access: serve.HeatmapJSON{H: size, W: size, Pix: pix},
				Sets:   c.sets,
				Ways:   c.ways,
			})
			if err != nil {
				return err
			}
			bodies = append(bodies, b)
		}
	}

	// stop closes at the deadline: workers blocked on a pacing token
	// unblock through it instead of waiting out an empty bucket.
	stop := make(chan struct{})
	timer := time.AfterFunc(duration, func() { close(stop) })
	defer timer.Stop()

	// Optional pacing: one shared token bucket at the target rate.
	var tokens chan struct{}
	if qps > 0 {
		tokens = make(chan struct{}, concurrency)
		interval := time.Duration(float64(time.Second) / qps)
		go func() {
			ticker := time.NewTicker(interval)
			defer ticker.Stop()
			for {
				select {
				case <-stop:
					return
				case <-ticker.C:
					select {
					case tokens <- struct{}{}:
					default: // workers saturated; drop the token (closed loop)
					}
				}
			}
		}()
	}

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        concurrency * 2,
		MaxIdleConnsPerHost: concurrency * 2,
	}}
	deadline := time.Now().Add(duration)
	resultsCh := make(chan []result, concurrency)
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*7919))
			var zipf *rand.Zipf
			if zipfS > 1 && len(bodies) > 1 {
				zipf = rand.NewZipf(rng, zipfS, 1, uint64(len(bodies)-1))
			}
			var local []result
			for time.Now().Before(deadline) {
				if tokens != nil {
					select {
					case <-tokens:
					case <-stop:
						resultsCh <- local
						return
					}
				}
				idx := 0
				if zipf != nil {
					idx = int(zipf.Uint64())
				} else if len(bodies) > 1 {
					idx = rng.Intn(len(bodies))
				}
				start := time.Now()
				status, err := fire(client, url, bodies[idx])
				local = append(local, result{status: status, latency: time.Since(start), err: err != nil})
			}
			resultsCh <- local
		}(w)
	}
	wg.Wait()
	close(resultsCh)

	var all []result
	for rs := range resultsCh {
		all = append(all, rs...)
	}
	if len(all) == 0 {
		return fmt.Errorf("no requests completed within %v", duration)
	}

	rep := buildReport(url, duration, qps, concurrency, zipfS, replicas, all)
	if scrape {
		rep.Gateway = scrapeCounters(client, url)
	}
	return writeReport(rep, out)
}

// buildReport aggregates raw results into the JSON document.
func buildReport(url string, duration time.Duration, qps float64, concurrency int, zipfS float64, replicas int, all []result) report {
	rep := report{
		URL:         url,
		Replicas:    replicas,
		DurationSec: duration.Seconds(),
		QPSTarget:   qps,
		Concurrency: concurrency,
		ZipfS:       zipfS,
		Requests:    len(all),
		ByStatus:    make(map[string]int),
	}
	lat := make([]time.Duration, 0, len(all))
	for _, r := range all {
		if r.err {
			rep.Errors++
			rep.ByStatus["transport_error"]++
			continue
		}
		rep.ByStatus[strconv.Itoa(r.status)]++
		if r.status >= 200 && r.status < 300 {
			lat = append(lat, r.latency)
		}
	}
	rep.AchievedQPS = float64(len(all)) / duration.Seconds()
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		q := func(p float64) float64 {
			return float64(lat[int(p*float64(len(lat)-1))]) / float64(time.Millisecond)
		}
		rep.LatencyMs.P50 = q(0.50)
		rep.LatencyMs.P90 = q(0.90)
		rep.LatencyMs.P99 = q(0.99)
		rep.LatencyMs.Max = float64(lat[len(lat)-1]) / float64(time.Millisecond)
	}
	return rep
}

// fire issues one prediction and discards the body (closed loop only
// needs status + timing).
func fire(client *http.Client, url string, body []byte) (int, error) {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/predict", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	_, cErr := io.Copy(io.Discard, resp.Body)
	if err := resp.Body.Close(); cErr == nil {
		cErr = err
	}
	return resp.StatusCode, cErr
}

// resolveModels returns the model names to drive and the heatmap size
// they expect, discovering both via GET /v1/models when -models is
// unset.
func resolveModels(url, modelsFlag string) ([]string, int, error) {
	resp, err := http.Get(url + "/v1/models")
	if err != nil {
		return nil, 0, fmt.Errorf("discover models: %w", err)
	}
	data, rerr := io.ReadAll(resp.Body)
	cerr := resp.Body.Close()
	if rerr != nil {
		return nil, 0, rerr
	}
	if cerr != nil {
		return nil, 0, cerr
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("GET /v1/models: status %d: %s", resp.StatusCode, data)
	}
	var infos []serve.ModelInfo
	if err := json.Unmarshal(data, &infos); err != nil {
		return nil, 0, fmt.Errorf("decode /v1/models: %w", err)
	}
	if len(infos) == 0 {
		return nil, 0, fmt.Errorf("target reports no models")
	}
	size := infos[0].ImageSize
	if modelsFlag == "" {
		names := make([]string, len(infos))
		for i, inf := range infos {
			names[i] = inf.Name
		}
		return names, size, nil
	}
	var names []string
	for _, n := range strings.Split(modelsFlag, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return nil, 0, fmt.Errorf("-models given but empty")
	}
	return names, size, nil
}

// parseConditions parses "64:12,128:8" into cache geometries.
func parseConditions(s string) ([]condition, error) {
	var out []condition
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		sw := strings.SplitN(part, ":", 2)
		if len(sw) != 2 {
			return nil, fmt.Errorf("condition %q: want sets:ways", part)
		}
		sets, err := strconv.Atoi(sw[0])
		if err != nil {
			return nil, fmt.Errorf("condition %q: %w", part, err)
		}
		ways, err := strconv.Atoi(sw[1])
		if err != nil {
			return nil, fmt.Errorf("condition %q: %w", part, err)
		}
		out = append(out, condition{sets: sets, ways: ways})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no conditions given")
	}
	return out, nil
}

// scrapeCounters pulls hedge/shed/retry counters off the target's
// /metrics; missing families (a bare cbx-serve) are simply absent.
func scrapeCounters(client *http.Client, url string) map[string]float64 {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil
	}
	data, rerr := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); rerr == nil {
		rerr = cerr
	}
	if rerr != nil || resp.StatusCode != http.StatusOK {
		return nil
	}
	wanted := []string{
		`cachebox_gateway_hedges_total{event="fired"}`,
		`cachebox_gateway_hedges_total{event="won"}`,
		`cachebox_gateway_hedges_total{event="primary_won"}`,
		"cachebox_gateway_retries_total",
		"cachebox_gateway_shed_total",
		"cachebox_gateway_shard_balance",
		"cachebox_gateway_healthy_replicas",
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(data), "\n") {
		for _, w := range wanted {
			if strings.HasPrefix(line, w+" ") {
				if v, err := strconv.ParseFloat(strings.TrimPrefix(line, w+" "), 64); err == nil {
					out[w] = v
				}
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// writeReport emits the JSON document to -out or stdout.
func writeReport(rep report, out string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}
