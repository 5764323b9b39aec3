package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"cachebox/internal/core"
	"cachebox/internal/heatmap"
	"cachebox/internal/obs"
)

// Typed batcher errors; the HTTP layer maps them to status codes.
var (
	// ErrQueueFull: the bounded queue rejected the request (429).
	ErrQueueFull = errors.New("serve: prediction queue full")
	// ErrDraining: the server is shutting down and no longer accepts
	// work (503). Requests accepted before the drain began still
	// complete.
	ErrDraining = errors.New("serve: server draining")
)

// pending is one enqueued prediction travelling through the
// micro-batcher.
type pending struct {
	e        *entry
	access   *heatmap.Heatmap
	cond     core.ConditionVec
	ctx      context.Context
	enqueued time.Time
	// queueSpan is the request's queue-wait span: started by the HTTP
	// handler at enqueue time, ended by the batch worker when the
	// request is collected into a batch (obs spans may end on a
	// different goroutine than they started on).
	queueSpan *obs.Span
	// resp is buffered (capacity 1) so a worker can always complete a
	// request without blocking, even if the waiting handler timed out
	// and went away.
	resp chan result
}

// result is a completed prediction (or its error).
type result struct {
	miss      *heatmap.Heatmap
	batchSize int
	err       error
}

// batcher coalesces concurrent predictions into batched generator
// forward passes. Requests land in a bounded queue; a worker takes the
// first request, then keeps collecting until either maxBatch requests
// are in hand or maxWait has elapsed since collection began — the
// classic dynamic micro-batching policy. A full queue rejects
// immediately (backpressure), and close() drains every accepted
// request before returning (graceful shutdown).
type batcher struct {
	queue    chan *pending
	maxBatch int
	maxWait  time.Duration
	m        *serveMetrics

	// inflight counts batches currently executing a forward pass; the
	// health endpoint exposes it so a gateway's shedding policy can see
	// work the queue-depth gauge no longer covers.
	inflight atomic.Int64

	// mu guards closed against concurrent enqueues: enqueue holds the
	// read side, so close's write lock ensures no send can race the
	// channel close.
	mu     sync.RWMutex
	closed bool
	wg     sync.WaitGroup
}

func newBatcher(maxBatch, queueDepth, workers int, maxWait time.Duration, m *serveMetrics) *batcher {
	b := &batcher{
		queue:    make(chan *pending, queueDepth),
		maxBatch: maxBatch,
		maxWait:  maxWait,
		m:        m,
	}
	for i := 0; i < workers; i++ {
		b.wg.Add(1)
		go b.run()
	}
	return b
}

// depth reports how many requests are queued but not yet collected.
func (b *batcher) depth() int { return len(b.queue) }

// inflightBatches reports how many batches are mid-forward-pass.
func (b *batcher) inflightBatches() int { return int(b.inflight.Load()) }

// enqueue admits a request or rejects it without blocking: ErrDraining
// after close() began, ErrQueueFull when the bounded queue is at
// capacity.
func (b *batcher) enqueue(p *pending) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return ErrDraining
	}
	select {
	case b.queue <- p:
		return nil
	default:
		return ErrQueueFull
	}
}

// close stops intake and blocks until every accepted request has been
// answered. Safe to call more than once.
func (b *batcher) close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		close(b.queue)
	}
	b.mu.Unlock()
	b.wg.Wait()
}

// run is the worker loop: block for the first request of a batch, then
// collect until the size cap or the wait deadline, then flush. After
// close(), receives on the closed channel drain the remaining buffered
// requests immediately and the loop exits once the queue is empty.
func (b *batcher) run() {
	defer b.wg.Done()
	for {
		first, ok := <-b.queue
		if !ok {
			return
		}
		batch := make([]*pending, 1, b.maxBatch)
		batch[0] = first
		timer := time.NewTimer(b.maxWait)
	collect:
		for len(batch) < b.maxBatch {
			select {
			case p, ok := <-b.queue:
				if !ok {
					break collect
				}
				batch = append(batch, p)
			case <-timer.C:
				break collect
			}
		}
		timer.Stop()
		b.flush(batch)
	}
}

// flush groups a collected batch by destination model (requests for
// different registry entries cannot share a forward pass) preserving
// arrival order, and runs one batched prediction per group.
func (b *batcher) flush(batch []*pending) {
	groups := make(map[*entry][]*pending)
	var order []*entry
	for _, p := range batch {
		if _, seen := groups[p.e]; !seen {
			order = append(order, p.e)
		}
		groups[p.e] = append(groups[p.e], p)
	}
	for _, e := range order {
		b.flushGroup(e, groups[e])
	}
}

// flushGroup answers requests whose context already expired, then runs
// the survivors through one batched generator forward pass and
// distributes the results.
func (b *batcher) flushGroup(e *entry, group []*pending) {
	now := time.Now()
	live := make([]*pending, 0, len(group))
	for _, p := range group {
		p.queueSpan.End()
		if err := p.ctx.Err(); err != nil {
			p.resp <- result{err: err}
			continue
		}
		b.m.stageQueue.Observe(now.Sub(p.enqueued).Seconds())
		live = append(live, p)
	}
	if len(live) == 0 {
		return
	}
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	batchCtx, batchSpan := obs.Start(live[0].ctx, "serve.batch")
	batchSpan.TagInt("size", len(live))
	access := make([]*heatmap.Heatmap, len(live))
	conds := make([]core.ConditionVec, len(live))
	for i, p := range live {
		access[i] = p.access
		conds[i] = p.cond
	}
	b.m.batchSize.Observe(float64(len(live)))
	start := time.Now()
	_, fwdSpan := obs.Start(batchCtx, "serve.forward")
	e.mu.Lock()
	miss, err := e.model.PredictConditioned(access, conds)
	e.mu.Unlock()
	fwdSpan.End()
	b.m.stageInfer.Observe(time.Since(start).Seconds())
	// The batch span ends before any result is handed out: a caller
	// that has its answer may read the trace, and must find the span.
	batchSpan.End()
	if err != nil {
		for _, p := range live {
			p.resp <- result{err: err}
		}
		return
	}
	for i, p := range live {
		p.resp <- result{miss: miss[i], batchSize: len(live)}
	}
}
