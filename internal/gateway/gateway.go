package gateway

import (
	"bytes"
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"cachebox/internal/core"
	"cachebox/internal/metrics"
	"cachebox/internal/obs"
	"cachebox/internal/serve"
)

// Gateway-specific error-envelope codes, extending the stable code set
// of the serve v1 envelope (the body shape is identical, so clients
// branch on one schema across both tiers).
const (
	// CodeNoReplicas: the health gate admits no replica (503).
	CodeNoReplicas = "no_replicas"
	// CodeShed: the fleet has no headroom; the gateway shed the request
	// rather than queue it into a saturated replica (429).
	CodeShed = "shed"
	// CodeUpstream: every candidate replica failed at transport level
	// or with a server error (502).
	CodeUpstream = "upstream"
)

// Config tunes the gateway. The zero value gets sensible defaults;
// boolean knobs are spelled as Disable* so the zero value enables the
// full policy (retry and hedging on).
type Config struct {
	// Replicas is the cbx-serve fleet (base URLs). Required.
	Replicas []string
	// VNodes is the virtual-node count per replica on the hash ring
	// (default 64 — balances shard spread against ring size).
	VNodes int
	// HealthInterval is the health-poll period (default 500ms).
	HealthInterval time.Duration
	// HealthTimeout bounds one health probe (default 2s).
	HealthTimeout time.Duration
	// EjectAfter is the consecutive-failure count that ejects a replica
	// (default 3).
	EjectAfter int
	// ReadmitBackoff is the initial probe backoff for ejected replicas,
	// doubling up to MaxBackoff (defaults 1s and 30s).
	ReadmitBackoff time.Duration
	MaxBackoff     time.Duration
	// DisableRetry429 turns off the backpressure retry: a replica 429
	// then sheds immediately instead of trying the next candidate.
	DisableRetry429 bool
	// ShedFraction is the occupancy threshold for the retry target: a
	// 429 is retried only onto a candidate whose last-polled queued +
	// in-flight work is below this fraction of its queue capacity
	// (default 0.8).
	ShedFraction float64
	// DisableHedge turns off tail-latency hedging.
	DisableHedge bool
	// HedgeQuantile is the tracked latency quantile used as the hedge
	// budget (default 0.95).
	HedgeQuantile float64
	// HedgeMin floors the hedge budget and serves as the cold-start
	// budget before enough samples exist (default 2ms).
	HedgeMin time.Duration
	// HedgeAfter, when positive, overrides the adaptive budget with a
	// fixed hedge delay (CI uses this to force hedges deterministically).
	HedgeAfter time.Duration
	// HedgeWindow is the latency-tracker window size (default 1024).
	HedgeWindow int
	// RequestTimeout bounds a proxied request end to end (default 30s).
	RequestTimeout time.Duration
	// MaxBodyBytes caps accepted request bodies (default 16 MiB).
	MaxBodyBytes int64
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 500 * time.Millisecond
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = 2 * time.Second
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.ReadmitBackoff <= 0 {
		c.ReadmitBackoff = time.Second
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 30 * time.Second
	}
	if c.ShedFraction <= 0 {
		c.ShedFraction = 0.8
	}
	if c.HedgeQuantile <= 0 {
		c.HedgeQuantile = 0.95
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = 2 * time.Millisecond
	}
	if c.HedgeWindow <= 0 {
		c.HedgeWindow = 1024
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	return c
}

// Gateway is the sharding front tier. Create with New, launch the
// health gate with Start, mount as an http.Handler.
type Gateway struct {
	cfg        Config
	ring       *Ring
	gate       *HealthGate
	m          *gatewayMetrics
	lat        *latencyTracker
	client     *http.Client
	mux        *http.ServeMux
	replicaIdx map[string]int
	idBase     string
	idSeq      atomic.Uint64
}

// New wires a gateway over a replica fleet.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	ring, err := NewRing(cfg.Replicas, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	replicas := ring.Replicas()
	gate := newHealthGate(replicas, cfg.HealthInterval, cfg.HealthTimeout,
		cfg.EjectAfter, cfg.ReadmitBackoff, cfg.MaxBackoff)
	var seed [8]byte
	if _, err := cryptorand.Read(seed[:]); err != nil {
		return nil, fmt.Errorf("gateway: trace-id seed: %w", err)
	}
	g := &Gateway{
		cfg:  cfg,
		ring: ring,
		gate: gate,
		m:    newGatewayMetrics(replicas, gate),
		lat:  newLatencyTracker(cfg.HedgeWindow, cfg.HedgeQuantile, cfg.HedgeMin),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}},
		mux:        http.NewServeMux(),
		replicaIdx: make(map[string]int, len(replicas)),
		idBase:     hex.EncodeToString(seed[:]),
	}
	for i, r := range replicas {
		g.replicaIdx[r] = i
	}
	g.mux.HandleFunc("POST /v1/predict", g.handlePredict)
	g.mux.HandleFunc("GET /v1/models", g.handleModels)
	g.mux.HandleFunc("GET /v1/replicas", g.handleReplicas)
	g.mux.HandleFunc("GET /v1/ring", g.handleRing)
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)
	return g, nil
}

// Start launches the health-gate poll loop; it stops when ctx is
// cancelled. Call once.
func (g *Gateway) Start(ctx context.Context) { g.gate.start(ctx) }

// Wait blocks until the health gate has shut down (after the Start
// context is cancelled) — the graceful-drain goroutine's join point.
func (g *Gateway) Wait() { g.gate.wait() }

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

// errorResponse mirrors the serve v1 error envelope.
type errorResponse struct {
	Error serve.ErrorBody `json:"error"`
}

// fail writes the v1 JSON error envelope and counts the response.
func (g *Gateway) fail(w http.ResponseWriter, status int, code, msg string) {
	g.m.responses.With(strconv.Itoa(status)).Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	//lint:ignore unchecked-error a failed error-response write has no further recourse
	json.NewEncoder(w).Encode(errorResponse{Error: serve.ErrorBody{Code: code, Message: msg}})
}

// nextTraceID mints a process-unique request trace id.
func (g *Gateway) nextTraceID() string {
	return fmt.Sprintf("gw-%s-%d", g.idBase, g.idSeq.Add(1))
}

// attemptResult is one proxy attempt's outcome.
type attemptResult struct {
	replica  string
	hedge    bool
	status   int
	body     []byte
	ctype    string
	err      error
	canceled bool // the attempt lost a hedge/retry race, not the replica
}

// handlePredict proxies POST /v1/predict: decode enough of the body to
// shard it, walk the ring's healthy candidates with failover, retry or
// shed on backpressure, and hedge the tail.
func (g *Gateway) handlePredict(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes)
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		//lint:ignore determinism-taint the clock feeds latency tracking and backoff scheduling only; an HTTP error envelope is not a reproducible artifact
		g.fail(w, http.StatusBadRequest, serve.CodeBadRequest, "read request: "+err.Error())
		return
	}
	var req serve.PredictRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		g.fail(w, http.StatusBadRequest, serve.CodeBadRequest, "decode request: "+err.Error())
		return
	}
	cond := core.ConditionVec{Sets: req.Sets, Ways: req.Ways}
	if req.Condition != nil {
		cond = *req.Condition
	}
	key := ShardKey(req.Model, cond)
	candidates := g.healthyCandidates(key)
	if len(candidates) == 0 {
		g.fail(w, http.StatusServiceUnavailable, CodeNoReplicas, "gateway: no healthy replicas")
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RequestTimeout)
	defer cancel()
	traceID := g.nextTraceID()
	reqCtx, span := obs.Start(ctx, "gateway.proxy")
	defer span.End()
	span.Tag("trace_id", traceID)
	span.Tag("key", key)

	res := g.race(reqCtx, candidates, raw, traceID)
	span.Tag("replica", res.replica)

	switch {
	case res.err != nil:
		switch {
		case errors.Is(res.err, context.DeadlineExceeded):
			g.fail(w, http.StatusGatewayTimeout, serve.CodeTimeout, "gateway: request timed out")
		case errors.Is(res.err, context.Canceled):
			g.fail(w, http.StatusBadRequest, serve.CodeCanceled, "request canceled")
		default:
			g.fail(w, http.StatusBadGateway, CodeUpstream, "gateway: all candidates failed: "+res.err.Error())
		}
	case res.status == http.StatusTooManyRequests:
		// Replica backpressure the retry policy could not place
		// elsewhere: shed at the gateway, telling the client to back off
		// rather than letting the queue build invisibly.
		g.m.sheds.Inc()
		w.Header().Set("Retry-After", "1")
		g.fail(w, http.StatusTooManyRequests, CodeShed, "gateway: fleet saturated, request shed")
	default:
		g.m.responses.With(strconv.Itoa(res.status)).Inc()
		if res.ctype != "" {
			w.Header().Set("Content-Type", res.ctype)
		}
		w.Header().Set("X-Cachebox-Replica", res.replica)
		w.Header().Set(obs.HeaderTraceID, traceID)
		w.WriteHeader(res.status)
		//lint:ignore unchecked-error a failed proxy-response write has no further recourse
		w.Write(res.body)
	}
}

// healthyCandidates returns the ring's preference order for key,
// filtered through the health gate.
func (g *Gateway) healthyCandidates(key string) []string {
	all := g.ring.Candidates(key)
	out := make([]string, 0, len(all))
	for _, c := range all {
		if g.gate.IsHealthy(c) {
			out = append(out, c)
		}
	}
	return out
}

// hedgeBudget resolves the current hedge delay.
func (g *Gateway) hedgeBudget() time.Duration {
	if g.cfg.HedgeAfter > 0 {
		return g.cfg.HedgeAfter
	}
	return g.lat.Budget()
}

// headroom reports whether a retry onto url is allowed under the shed
// policy: the candidate's last-polled queued + in-flight work must sit
// below ShedFraction of its queue capacity. Unknown load (no
// successful poll yet) gets the benefit of the doubt.
func (g *Gateway) headroom(url string) bool {
	depth, capacity, known := g.gate.Load(url)
	if !known {
		return true
	}
	return float64(depth) < g.cfg.ShedFraction*float64(capacity)
}

// race runs the attempt state machine over the candidate list: the
// primary launches immediately; a hedge launches when the budget
// elapses; transport failures and 5xx fail over to the next candidate;
// 429s retry onto the next candidate only when it has headroom. The
// first 2xx (or definitive client error) wins and every other in-flight
// attempt is cancelled via its context.
func (g *Gateway) race(ctx context.Context, candidates []string, body []byte, traceID string) attemptResult {
	results := make(chan attemptResult, len(candidates)+1)
	cancels := make([]context.CancelFunc, 0, len(candidates))
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()
	next, inflight, hedged := 0, 0, false
	launch := func(hedge bool) {
		replica := candidates[next]
		next++
		actx, cancel := context.WithCancel(ctx)
		cancels = append(cancels, cancel)
		inflight++
		//lint:ignore goroutine-leak results is buffered to len(candidates)+1, so every attempt's single send completes even after the race has returned
		go g.attempt(actx, replica, hedge, body, traceID, results)
	}
	launch(false)

	var hedgeC <-chan time.Time
	if !g.cfg.DisableHedge && next < len(candidates) {
		timer := time.NewTimer(g.hedgeBudget())
		defer timer.Stop()
		hedgeC = timer.C
	}

	var fallback attemptResult
	haveFallback := false
	remember := func(res attemptResult) {
		// Prefer reporting backpressure (a client-actionable 429) over
		// transport errors, and the earliest otherwise.
		if !haveFallback || (res.status == http.StatusTooManyRequests && fallback.status != http.StatusTooManyRequests) {
			fallback, haveFallback = res, true
		}
	}
	for {
		select {
		case res := <-results:
			inflight--
			switch {
			case res.err == nil && res.status >= 200 && res.status < 300:
				if res.hedge {
					g.m.hedges.With(hedgeWon).Inc()
				} else if hedged {
					g.m.hedges.With(hedgePrimaryWon).Inc()
				}
				return res
			case res.err == nil && res.status == http.StatusTooManyRequests:
				remember(res)
				if !g.cfg.DisableRetry429 && next < len(candidates) && g.headroom(candidates[next]) {
					g.m.retries.Inc()
					launch(false)
				}
			case res.err == nil && res.status >= 400 && res.status < 500:
				// Deterministic client rejection (bad input, unknown
				// model): every replica would answer the same — pass it
				// through instead of burning the fleet on retries.
				return res
			default:
				// Transport failure or 5xx. A cancellation is our own
				// doing (a sibling already won or the client left), so it
				// neither fails over nor taints the gate.
				if !res.canceled {
					if res.err != nil {
						g.gate.ReportFailure(res.replica)
					}
					remember(res)
					if next < len(candidates) {
						launch(false)
					}
				}
			}
			if inflight == 0 {
				if haveFallback {
					return fallback
				}
				return attemptResult{err: ctx.Err()}
			}
		case <-hedgeC:
			hedgeC = nil
			if next < len(candidates) {
				hedged = true
				g.m.hedges.With(hedgeFired).Inc()
				launch(true)
			}
		case <-ctx.Done():
			return attemptResult{err: ctx.Err()}
		}
	}
}

// attempt issues one proxied request and reports its outcome on
// results (buffered — a late loser never blocks). The attempt span
// rides the request's track and is injected into the hop's headers, so
// replica spans join the same trace.
func (g *Gateway) attempt(ctx context.Context, replica string, hedge bool, body []byte, traceID string, results chan<- attemptResult) {
	_, sp := obs.Start(ctx, "gateway.attempt")
	defer sp.End()
	sp.Tag("replica", replica)
	sp.Tag("trace_id", traceID)
	if hedge {
		sp.Tag("hedge", "1")
	}
	g.m.perReplica[g.replicaIdx[replica]].Add(1)

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, replica+"/v1/predict", bytes.NewReader(body))
	if err != nil {
		g.m.requests.With(replica, outcomeError).Inc()
		results <- attemptResult{replica: replica, hedge: hedge, err: err}
		return
	}
	req.Header.Set("Content-Type", "application/json")
	obs.Inject(req.Header, traceID, sp)

	start := time.Now()
	resp, err := g.client.Do(req)
	if err != nil {
		canceled := ctx.Err() != nil
		if canceled {
			g.m.requests.With(replica, outcomeCanceled).Inc()
		} else {
			g.m.requests.With(replica, outcomeError).Inc()
		}
		results <- attemptResult{replica: replica, hedge: hedge, err: err, canceled: canceled}
		return
	}
	data, rerr := io.ReadAll(resp.Body)
	cerr := resp.Body.Close()
	if rerr == nil {
		rerr = cerr
	}
	if rerr != nil {
		canceled := ctx.Err() != nil
		g.m.requests.With(replica, outcomeError).Inc()
		results <- attemptResult{replica: replica, hedge: hedge, err: rerr, canceled: canceled}
		return
	}
	elapsed := time.Since(start)
	g.m.latency.With(replica).Observe(elapsed.Seconds())
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		g.m.requests.With(replica, outcomeOK).Inc()
		g.lat.Observe(elapsed)
	case resp.StatusCode == http.StatusTooManyRequests:
		g.m.requests.With(replica, outcomeBackpressure).Inc()
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		g.m.requests.With(replica, outcomeRejected).Inc()
	default:
		g.m.requests.With(replica, outcomeError).Inc()
	}
	sp.TagInt("status", resp.StatusCode)
	results <- attemptResult{
		replica: replica, hedge: hedge,
		status: resp.StatusCode, body: data,
		ctype: resp.Header.Get("Content-Type"),
	}
}

// gatewayHealth is the gateway's own GET /healthz body.
type gatewayHealth struct {
	Status   string `json:"status"`
	Replicas int    `json:"replicas"`
	Healthy  int    `json:"healthy"`
}

// handleHealthz reports gateway liveness: 200 while at least one
// replica is admitted, 503 otherwise.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	healthy := g.gate.HealthyCount()
	total := len(g.ring.Replicas())
	h := gatewayHealth{Status: "ok", Replicas: total, Healthy: healthy}
	code := http.StatusOK
	switch {
	case healthy == 0:
		h.Status = "unavailable"
		code = http.StatusServiceUnavailable
	case healthy < total:
		h.Status = "degraded"
	}
	g.respondJSON(w, code, h)
}

// handleReplicas exposes the health gate's per-replica state.
func (g *Gateway) handleReplicas(w http.ResponseWriter, r *http.Request) {
	g.respondJSON(w, http.StatusOK, g.gate.Snapshot())
}

// ringAssignment is the GET /v1/ring body: where a key routes right
// now, and the full preference order behind that choice.
type ringAssignment struct {
	Key        string   `json:"key"`
	Primary    string   `json:"primary,omitempty"`
	Candidates []string `json:"candidates"`
	Healthy    []string `json:"healthy"`
}

// handleRing answers GET /v1/ring?model=&sets=&ways=: the debug
// endpoint CI uses to assert shard stickiness and post-failover
// reassignment without reverse-engineering the hash.
func (g *Gateway) handleRing(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	sets, err := strconv.Atoi(q.Get("sets"))
	if err != nil {
		g.fail(w, http.StatusBadRequest, serve.CodeBadRequest, "ring: sets must be an integer")
		return
	}
	ways, err := strconv.Atoi(q.Get("ways"))
	if err != nil {
		g.fail(w, http.StatusBadRequest, serve.CodeBadRequest, "ring: ways must be an integer")
		return
	}
	key := ShardKey(q.Get("model"), core.ConditionVec{Sets: sets, Ways: ways})
	a := ringAssignment{
		Key:        key,
		Candidates: g.ring.Candidates(key),
		Healthy:    g.healthyCandidates(key),
	}
	if len(a.Healthy) > 0 {
		a.Primary = a.Healthy[0]
	}
	g.respondJSON(w, http.StatusOK, a)
}

// handleModels forwards GET /v1/models to the first healthy replica:
// the fleet serves one model set (replicas pull the same
// content-addressed store), so any admitted member can answer.
func (g *Gateway) handleModels(w http.ResponseWriter, r *http.Request) {
	var target string
	for _, url := range g.ring.Replicas() {
		if g.gate.IsHealthy(url) {
			target = url
			break
		}
	}
	if target == "" {
		//lint:ignore determinism-taint the clock feeds health-gate backoff scheduling only; an HTTP error envelope is not a reproducible artifact
		g.fail(w, http.StatusServiceUnavailable, CodeNoReplicas, "gateway: no healthy replicas")
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, target+"/v1/models", nil)
	if err != nil {
		g.fail(w, http.StatusBadGateway, CodeUpstream, err.Error())
		return
	}
	resp, err := g.client.Do(req)
	if err != nil {
		g.gate.ReportFailure(target)
		g.fail(w, http.StatusBadGateway, CodeUpstream, err.Error())
		return
	}
	data, rerr := io.ReadAll(resp.Body)
	cerr := resp.Body.Close()
	if rerr == nil {
		rerr = cerr
	}
	if rerr != nil {
		g.fail(w, http.StatusBadGateway, CodeUpstream, rerr.Error())
		return
	}
	g.m.responses.With(strconv.Itoa(resp.StatusCode)).Inc()
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	w.Header().Set("X-Cachebox-Replica", target)
	w.WriteHeader(resp.StatusCode)
	//lint:ignore unchecked-error a failed proxy-response write has no further recourse
	w.Write(data)
}

// handleMetrics exposes the gateway families plus the process-wide
// runtime registry (span histograms) in Prometheus text format.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	buf := append(g.m.prom.Expose(), metrics.Runtime.Expose()...)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	//lint:ignore unchecked-error a failed metrics write has no further recourse
	w.Write(buf)
}

// respondJSON writes a JSON body and counts the response.
func (g *Gateway) respondJSON(w http.ResponseWriter, code int, v any) {
	g.m.responses.With(strconv.Itoa(code)).Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	//lint:ignore unchecked-error a failed response write has no further recourse
	json.NewEncoder(w).Encode(v)
}
