package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cachebox/internal/cachesim"
	"cachebox/internal/core"
	"cachebox/internal/gateway"
	"cachebox/internal/harness"
	"cachebox/internal/heatmap"
	"cachebox/internal/obs"
	"cachebox/internal/serve"
	"cachebox/internal/workload"
)

// serve-fleet: the serving path. The model is deliberately tiny
// (forward ≈ 0.1–0.2 ms) so JSON, the serve queue and micro-batcher and
// the gateway's ring/hedge/proxy hop are the cost, not GEMM.
const (
	fleetReplicas = 2
	fleetBodies   = 256
	fleetZipfS    = 1.2
	// fleetRateRPS is the open-loop rate: about half of what two
	// closed-loop callers sustain, so the queue does not grow.
	fleetRateRPS = 300
	fleetProbes  = 8
	// closedShare of -seconds goes to the closed loop, the rest to the
	// open loop, whose percentiles need the larger sample.
	closedShare = 0.4
	// rateChunk is how many consecutive completions make one sample of
	// the closed loop's rate, about a quarter of a second's worth.
	rateChunk = 128
	// fleetWarmUp is the discarded closed loop before the first timed
	// request: connections open, the gateway's hedge quantile fills its
	// sample floor and the replicas' heaps reach their working size.
	fleetWarmUp = time.Second
	// timerSlack is how much earlier than due the generator wakes to
	// spin out the rest: this host's sleeps overshoot by up to 1 ms.
	timerSlack = 500 * time.Microsecond
	// maxLatenessMs: an open loop whose generator ran later than this
	// at p95 did not offer the schedule it reports on, and is invalid.
	maxLatenessMs = 1.0
)

// fleetGeometries is the request mix's cache geometries, Zipf-skewed so
// the shard ring sees a hot key.
var fleetGeometries = []core.ConditionVec{{Sets: 64, Ways: 12}, {Sets: 128, Ways: 8}, {Sets: 256, Ways: 4}}

// fleetRequest is one pre-encoded request of the mix.
type fleetRequest struct {
	body     []byte
	access   *heatmap.Heatmap
	cond     core.ConditionVec
	accesses float64
}

type serveFleet struct {
	model    *core.Model // in-process copy the probes compare against
	requests []fleetRequest
	servers  []*serve.Server
	https    []*httptest.Server // replicas, then the gateway
	gw       *gateway.Gateway
	cancel   context.CancelFunc
	client   *http.Client
	conns    int
}

func cloneModel(m *core.Model) (*core.Model, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, err
	}
	return core.Load(&buf)
}

func setupServeFleet(r *run) (state, error) {
	p := harness.ProfileFor(harness.Tiny)
	benches := workload.SpecLike(p.SpecGroups, p.SpecPhases, p.Ops).Benchmarks
	for i := range benches {
		benches[i].Seed += r.opt.seed - 1
	}
	train, test := workload.Split(benches, 0.8, evalSplitSeed)
	samples, err := trainSamples(train, []cachesim.Config{harness.L1Default}, p.Heatmap, p.MaxPairs, 32)
	if err != nil {
		return nil, err
	}
	model, err := core.NewModel(modelConfig(r, harness.Tiny))
	if err != nil {
		return nil, err
	}
	if _, err := model.Train(samples, core.TrainConfig{Epochs: 1, BatchSize: p.BatchSize, Seed: r.opt.seed}); err != nil {
		return nil, err
	}

	s := &serveFleet{model: model, conns: runtime.GOMAXPROCS(0)}
	held, err := trainSamples(test, []cachesim.Config{harness.L1Default}, p.Heatmap, fleetBodies, fleetBodies)
	if err != nil {
		return nil, err
	}
	if len(held) == 0 {
		return nil, fmt.Errorf("serve-fleet: held-out traces yield no windows")
	}
	rng := rand.New(rand.NewSource(r.opt.seed))
	zipf := rand.NewZipf(rng, fleetZipfS, 1, uint64(len(fleetGeometries)-1))
	for i := 0; i < fleetBodies; i++ {
		access := held[i%len(held)].Access
		cond := fleetGeometries[zipf.Uint64()]
		//lint:ignore determinism-taint request bodies are generated inputs, fixed by the seed; the clock only times the run
		body, err := json.Marshal(serve.PredictRequest{
			Access:    serve.HeatmapJSON{H: access.H, W: access.W, Pix: access.Pix},
			Condition: &cond,
		})
		if err != nil {
			return nil, err
		}
		s.requests = append(s.requests, fleetRequest{body: body, access: access, cond: cond, accesses: access.Sum()})
	}

	var urls []string
	for i := 0; i < fleetReplicas; i++ {
		m, err := cloneModel(model)
		if err != nil {
			return nil, errors.Join(err, s.close())
		}
		srv := serve.New(serve.NewStaticRegistry("tiny", m), serve.Config{})
		hs := httptest.NewServer(srv)
		s.servers = append(s.servers, srv)
		s.https = append(s.https, hs)
		urls = append(urls, hs.URL)
	}
	s.gw, err = gateway.New(gateway.Config{Replicas: urls})
	if err != nil {
		return nil, errors.Join(err, s.close())
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.gw.Start(ctx)
	s.https = append(s.https, httptest.NewServer(s.gw))
	// Load comes from this process over at most nproc connections:
	// more would measure the generator's own scheduling, not the fleet.
	s.client = &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: s.conns, MaxIdleConnsPerHost: s.conns},
	}
	return s, nil
}

func (s *serveFleet) gatewayURL() string { return s.https[len(s.https)-1].URL }

func (s *serveFleet) close() error {
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	// Front to back: stop accepting, then drain the replicas.
	for i := len(s.https) - 1; i >= 0; i-- {
		s.https[i].Close()
	}
	if s.cancel != nil {
		s.cancel()
		s.gw.Wait()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
	s.https, s.servers, s.cancel = nil, nil, nil
	return nil
}

// post sends request i to base and returns the decoded response, or an
// error for a transport failure, a non-200 or an undecodable body.
func (s *serveFleet) post(base string, i int) (*serve.PredictResponse, error) {
	resp, err := s.client.Post(base+"/v1/predict", "application/json", bytes.NewReader(s.requests[i].body))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var pr serve.PredictResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		return nil, err
	}
	return &pr, nil
}

// probe checks that the gateway's answer equals the in-process
// prediction bit for bit.
func (s *serveFleet) probe(r *run) {
	for i := 0; i < fleetProbes && i < len(s.requests); i++ {
		req := s.requests[i]
		got, err := s.post(s.gatewayURL(), i)
		if err != nil {
			r.check(false, "probe %d: %v", i, err)
			continue
		}
		pred, err := s.model.PredictConditioned([]*heatmap.Heatmap{req.access}, []core.ConditionVec{req.cond})
		if err != nil {
			r.check(false, "probe %d in-process: %v", i, err)
			continue
		}
		want := heatmap.ConstrainMiss(pred[0], req.access)
		same := len(got.Miss.Pix) == len(want.Pix)
		for j := 0; same && j < len(want.Pix); j++ {
			same = got.Miss.Pix[j] == want.Pix[j]
		}
		r.check(same, "probe %d: gateway response differs from in-process prediction", i)
	}
}

// closedLoop runs conns callers back to back for d and returns the
// completion rate over every full run of rateChunk consecutive
// completions, and the accesses per request.
func (s *serveFleet) closedLoop(r *run, base string, d time.Duration) (rates []float64, accessesPerReq float64) {
	var next atomic.Int64
	var mu sync.Mutex
	var done []time.Duration
	var accesses float64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < s.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1)-1) % len(s.requests)
				_, err := s.post(base, i)
				mu.Lock()
				r.check(err == nil, "closed loop: %v", err)
				if err == nil {
					done = append(done, time.Since(start))
					accesses += s.requests[i].accesses
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	accessesPerReq = accesses / float64(max(len(done), 1))
	// done is in completion order: appended under the lock.
	for k := rateChunk; k < len(done); k += rateChunk {
		rates = append(rates, rateChunk/(done[k]-done[k-rateChunk]).Seconds())
	}
	if len(rates) == 0 {
		rates = []float64{float64(len(done)) / time.Since(start).Seconds()}
	}
	return rates, accessesPerReq
}

// openLoopResult is one open-loop replay. Latency runs from each
// request's due time. A request that leaves late does so for one of
// two reasons, reported apart: every connection was still busy
// (connWaitMs, the fleet's doing) or the generator woke late
// (latenessMs, the benchmark's own).
type openLoopResult struct {
	latencyMs, latenessMs, connWaitMs []float64
	sent, ok, failed                  int
}

// openLoop replays a fixed schedule of rate requests per second for d
// at base over conns connections. Request i is due at start + i/rate
// whether or not earlier ones have returned; its latency runs from that
// instant, so the wait a stall imposes on later requests counts.
func (s *serveFleet) openLoop(r *run, base, span string, rate float64, d time.Duration) openLoopResult {
	total := max(int(d.Seconds()*rate), 1)
	var next atomic.Int64
	var mu sync.Mutex
	var res openLoopResult
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < s.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= total {
					return
				}
				free := time.Now()
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				time.Sleep(time.Until(due) - timerSlack)
				for time.Now().Before(due) {
				}
				sent := time.Now()
				id := -1
				if span != "" {
					id = r.tr.start(span, -1, i)
				}
				_, err := s.post(base, i%len(s.requests))
				if id >= 0 {
					r.tr.end(id)
				}
				lat := time.Since(due)
				ready := due
				if free.After(due) {
					ready = free
				}
				mu.Lock()
				r.check(err == nil, "open loop: %v", err)
				res.sent++
				if err == nil {
					res.ok++
					res.latencyMs = append(res.latencyMs, lat.Seconds()*1e3)
				} else {
					res.failed++
				}
				res.latenessMs = append(res.latenessMs, sent.Sub(ready).Seconds()*1e3)
				res.connWaitMs = append(res.connWaitMs, ready.Sub(due).Seconds()*1e3)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// Only a full-size run is a measurement; the smoke test shares its
	// cores with every other package's tests.
	if late := quantile(res.latenessMs, 0.95); r.opt.scale == 1 {
		r.check(late <= maxLatenessMs, "open loop at %s: generator lateness p95 %.3f ms exceeds %g ms", base, late, maxLatenessMs)
	}
	return res
}

// warmUp is the discarded closed loop, then the bit-exact probes.
func (s *serveFleet) warmUp(r *run) {
	s.closedLoop(r, s.gatewayURL(), time.Duration(r.opt.scale*float64(fleetWarmUp)))
	s.probe(r)
}

func (s *serveFleet) measure(r *run) error {
	base := s.gatewayURL()
	s.warmUp(r)
	r.ready()

	// Phase A, closed loop: scripted callers that wait for each reply.
	rates, accessesPerReq := s.closedLoop(r, base, r.phase(closedShare))
	r.set("windows_per_s", median(rates))
	r.set("accesses_per_s", median(rates)*accessesPerReq)
	r.info["closed_loop_rate_samples"] = len(rates)
	r.info["closed_loop_callers"] = s.conns

	// Phase B, open loop: independent users on a fixed schedule.
	res := s.openLoop(r, base, "", fleetRateRPS, r.phase(1-closedShare))
	r.set("p50_ms", quantile(res.latencyMs, 0.5))
	r.set("p90_ms", quantile(res.latencyMs, 0.9))
	r.info["open_loop_rate_rps"] = fleetRateRPS
	r.info["open_loop_sent"] = res.sent
	r.info["open_loop_ok"] = res.ok
	r.info["open_loop_p95_ms"] = quantile(res.latencyMs, 0.95)
	r.info["open_loop_p99_ms"] = quantile(res.latencyMs, 0.99)
	r.info["open_loop_lateness_p95_ms"] = quantile(res.latenessMs, 0.95)
	r.info["open_loop_conn_wait_p95_ms"] = quantile(res.connWaitMs, 0.95)
	return nil
}

// promSamples is one scrape of a Prometheus text endpoint.
type promSamples map[string]float64

func (s *serveFleet) scrape(base string) (promSamples, error) {
	resp, err := s.client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	out := promSamples{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			continue
		}
		out[line[:cut]] += v
	}
	return out, nil
}

// sum totals every series whose name starts with prefix and whose label
// block contains label ("" matches all).
func (p promSamples) sum(prefix, label string) float64 {
	t := 0.0
	for series, v := range p {
		name, labels, _ := strings.Cut(series, "{")
		if name == prefix && strings.Contains(labels, label) {
			t += v
		}
	}
	return t
}

// minus is what every series of p grew by since before.
func (p promSamples) minus(before promSamples) promSamples {
	d := make(promSamples, len(p))
	for k, v := range p {
		d[k] = v - before[k]
	}
	return d
}

// scrapeAll adds up the replicas' scrapes and returns the gateway's.
func (s *serveFleet) scrapeAll() (replicas, gw promSamples, err error) {
	replicas = promSamples{}
	for _, hs := range s.https[:len(s.https)-1] {
		p, err := s.scrape(hs.URL)
		if err != nil {
			return nil, nil, err
		}
		for k, v := range p {
			replicas[k] += v
		}
	}
	gw, err = s.scrape(s.gatewayURL())
	return replicas, gw, err
}

var obsServeSpans = map[string]string{
	"serve.queue":     "obs.serve.queue_s",
	"serve.batch":     "obs.serve.batch_s",
	"gateway.attempt": "obs.gateway.attempt_s",
}

var serveFleetLayers = []string{
	"trace_overhead",
	"serve.direct_p50_ms", "serve.direct_p95_ms",
	"gateway.hop_p50_ms", "gateway.hedge_fire_rate", "gateway.retries", "gateway.shed",
	"serve.batch_size_mean", "serve.queue_mean_ms", "serve.infer_mean_ms",
	"serve.status_200", "serve.status_429", "serve.status_5xx",
	"serve.json_request_bytes", "serve.json_codec_us",
	"core.predict_cond_b1_ms",
	"serve.p99_ms", "serve.max_ms",
	"loadgen.lateness_p95_ms", "loadgen.conn_wait_p95_ms",
	"loadgen.sent", "loadgen.ok", "loadgen.failed",
	"obs.serve.queue_s", "obs.serve.batch_s", "obs.gateway.attempt_s",
}

// layers is the traced run: the open-loop schedule replayed through the
// gateway untraced, then traced through the gateway and straight at one
// replica, with the fleet's own counters read before and after.
func (s *serveFleet) layers(r *run) error {
	base := s.gatewayURL()
	s.warmUp(r)
	d := r.phase(1.0 / 3)
	untraced := s.openLoop(r, base, "", fleetRateRPS, d)

	obs.Install(obs.NewCollector(obs.Options{}))
	defer obs.Install(nil)
	obsBefore := spanSums(obsServeSpans)
	rep0, gw0, err := s.scrapeAll()
	if err != nil {
		return err
	}
	via := s.openLoop(r, base, "gateway", fleetRateRPS, d)
	rep1, gw1, err := s.scrapeAll()
	if err != nil {
		return err
	}
	direct := s.openLoop(r, s.https[0].URL, "serve", fleetRateRPS, d)
	setObs(r, obsBefore, obsServeSpans)
	obs.Install(nil)

	viaP50, directP50 := quantile(via.latencyMs, 0.5), quantile(direct.latencyMs, 0.5)
	r.set("trace_overhead", viaP50/quantile(untraced.latencyMs, 0.5))
	r.set("serve.direct_p50_ms", directP50)
	r.set("serve.direct_p95_ms", quantile(direct.latencyMs, 0.95))
	r.set("gateway.hop_p50_ms", viaP50-directP50)
	r.set("serve.p99_ms", quantile(via.latencyMs, 0.99))
	r.set("serve.max_ms", quantile(via.latencyMs, 1))
	r.set("loadgen.lateness_p95_ms", quantile(via.latenessMs, 0.95))
	r.set("loadgen.conn_wait_p95_ms", quantile(via.connWaitMs, 0.95))
	r.set("loadgen.sent", float64(via.sent))
	r.set("loadgen.ok", float64(via.ok))
	r.set("loadgen.failed", float64(via.failed))
	r.info["via_gateway_p50_ms"] = viaP50
	r.info["untraced_p50_ms"] = quantile(untraced.latencyMs, 0.5)

	rep, gw := rep1.minus(rep0), gw1.minus(gw0)
	attempts := gw.sum("cachebox_gateway_requests_total", "")
	r.set("gateway.hedge_fire_rate", gw.sum("cachebox_gateway_hedges_total", `event="fired"`)/max(attempts, 1))
	r.set("gateway.retries", gw.sum("cachebox_gateway_retries_total", ""))
	r.set("gateway.shed", gw.sum("cachebox_gateway_shed_total", ""))
	r.set("serve.batch_size_mean", rep.sum("cbx_serve_batch_size_sum", "")/max(rep.sum("cbx_serve_batch_size_count", ""), 1))
	for stage, metric := range map[string]string{"queue": "serve.queue_mean_ms", "infer": "serve.infer_mean_ms"} {
		label := `stage="` + stage + `"`
		n := rep.sum("cbx_serve_stage_seconds_count", label)
		r.set(metric, rep.sum("cbx_serve_stage_seconds_sum", label)/max(n, 1)*1e3)
	}
	r.set("serve.status_200", rep.sum("cbx_serve_requests_total", `code="200"`))
	r.set("serve.status_429", rep.sum("cbx_serve_requests_total", `code="429"`))
	r.set("serve.status_5xx", rep.sum("cbx_serve_requests_total", `code="5`))

	s.probeJSON(r)
	return s.probeModel(r)
}

// probeJSON times the wire codec on the benchmark's own bodies.
func (s *serveFleet) probeJSON(r *run) {
	bytesTotal := 0
	t0 := time.Now()
	for _, req := range s.requests {
		var pr serve.PredictRequest
		err := json.Unmarshal(req.body, &pr)
		//lint:ignore determinism-taint timing the codec is the point; nothing is stored
		out, merr := json.Marshal(serve.PredictResponse{Model: "tiny", Miss: pr.Access, HitRate: 0.5, BatchSize: 1})
		var back serve.PredictResponse
		uerr := json.Unmarshal(out, &back)
		r.check(err == nil && merr == nil && uerr == nil, "json codec: %v %v %v", err, merr, uerr)
		bytesTotal += len(req.body)
	}
	r.set("serve.json_codec_us", time.Since(t0).Seconds()*1e6/float64(len(s.requests)))
	r.set("serve.json_request_bytes", float64(bytesTotal)/float64(len(s.requests)))
}

// probeModel times the in-process forward pass the fleet wraps: the
// model's share of p50_ms.
func (s *serveFleet) probeModel(r *run) error {
	t0 := time.Now()
	for _, req := range s.requests {
		if _, err := s.model.PredictConditioned([]*heatmap.Heatmap{req.access}, []core.ConditionVec{req.cond}); err != nil {
			return err
		}
	}
	r.set("core.predict_cond_b1_ms", time.Since(t0).Seconds()*1e3/float64(len(s.requests)))
	return nil
}
