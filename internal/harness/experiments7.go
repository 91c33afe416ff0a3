package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"parlist/internal/engine"
	"parlist/internal/list"
	"parlist/internal/load"
	"parlist/internal/pram"
	"parlist/internal/server"
)

// runE21 measures the serving daemon's request coalescing over the
// wire: an open-loop client drives parlistd's binary framing at a
// target QPS while the batcher's flush size and wait bound sweep. Every
// request is a rank request of one size class, so all coalescing
// happens in a single (op, class) group — the batcher's best case and
// the configuration the daemon is tuned for.
//
// Signals per cell:
//
//   - achieved/s: served requests over wall time. At offered rates the
//     per-request path cannot sustain, batchSize ≥ 8 lifts capacity —
//     one shard-queue trip, one dispatcher wakeup and one engine
//     semaphore handshake are paid per fused batch instead of per
//     request (the engine work itself is identical: a coalesced batch
//     is bit-identical to per-request Do, pinned by test).
//   - mean-batch: the achieved coalescing factor. 1.00 at batch=1 by
//     construction; below the configured size elsewhere means the
//     offered rate, not the size trigger, was the binding constraint
//     (groups flushed on the maxWait timer first).
//   - shed: requests refused at admission (batcher inbox or engine
//     queue full) — the open loop does not retry them.
//   - p50/p99: client-observed round trip, submit to response. On a
//     1-CPU host client, server and engines time-slice one core, so
//     absolute latency is pessimistic; the batch=1 vs batch≥8 ordering
//     at equal offered QPS is the host-independent signal.
//
// qps=max rows submit flat-out (pipelined, no pacing): equal offered
// load for every batch setting, bounded by the shared connection.
func runE21(cfg Config) ([]*Table, error) {
	n := 4096
	requests := 2000
	batches := []int{1, 8, 32}
	waits := []time.Duration{200 * time.Microsecond, 2 * time.Millisecond}
	rates := []float64{5000, 0} // 0 = unpaced (flat-out)
	if cfg.Quick {
		n = 512
		requests = 150
		batches = []int{1, 8}
		waits = []time.Duration{time.Millisecond}
		rates = []float64{0}
	}
	l := list.RandomList(n, cfg.Seed)

	t := &Table{
		Title: fmt.Sprintf("E21 — wire-path coalescing: batch size × maxWait × offered QPS, rank n=%d, 2 engines, GOMAXPROCS = %d",
			n, runtime.GOMAXPROCS(0)),
		Note: "open-loop rank requests over parlistd's binary framing; mean-batch is the achieved coalescing " +
			"factor and achieved/s the served throughput — at offered rates the per-request path (batch=1) " +
			"cannot sustain, fused batches lift capacity by paying dispatch once per batch instead of per request",
		Header: []string{"batch", "maxWait", "offered qps", "requests", "served", "shed", "achieved/s", "mean-batch", "p50", "p99"},
	}
	for _, b := range batches {
		for _, w := range waits {
			for _, r := range rates {
				row, err := e21Cell(cfg, l, b, w, r, requests)
				if err != nil {
					return nil, fmt.Errorf("E21 batch=%d maxWait=%v qps=%.0f: %w", b, w, r, err)
				}
				t.Rows = append(t.Rows, row)
			}
		}
	}
	return []*Table{t}, nil
}

// e21Cell runs one configuration end to end: fresh pool, fresh server,
// real listener, open-loop client, graceful drain.
func e21Cell(cfg Config, l *list.List, batch int, maxWait time.Duration, qps float64, requests int) ([]string, error) {
	c, drain, err := load.Loopback(engine.PoolConfig{
		Engines:    2,
		QueueDepth: 256,
		Engine:     engine.Config{Processors: 256, Exec: cfg.exec(pram.Native)},
	}, server.Config{BatchSize: batch, MaxWait: maxWait}, "E21")
	if err != nil {
		return nil, err
	}
	var batched atomic.Int64
	r := load.Open(qps, requests, wireRanks(c, l, false, &batched))
	if err := drain(); err != nil {
		return nil, err
	}
	if r.Failed > 0 {
		return nil, fmt.Errorf("%d of %d requests failed: %w", r.Failed, requests, r.Err)
	}
	if r.Served == 0 {
		return nil, fmt.Errorf("no requests served (all %d shed)", r.Shed)
	}
	offered := "max"
	if qps > 0 {
		offered = fmt.Sprintf("%.0f", qps)
	}
	return []string{
		fmt.Sprintf("%d", batch),
		maxWait.String(),
		offered,
		fmt.Sprintf("%d", requests),
		fmt.Sprintf("%d", r.Served),
		fmt.Sprintf("%d", r.Shed),
		fmt.Sprintf("%.0f", r.Rate()),
		fmt.Sprintf("%.2f", float64(batched.Load())/float64(r.Served)),
		r.Quantile(0.50).Round(time.Microsecond).String(),
		r.Quantile(0.99).Round(time.Microsecond).String(),
	}, nil
}

// wireRanks returns a load.Open issue function that submits rank
// requests for l on c. A served response must carry every rank and,
// when traced, a valid trace context; its fused batch size adds to
// batched. Server sheds count as shed — whether that fails the run is
// the caller's verdict.
func wireRanks(c *server.Client, l *list.List, traced bool, batched *atomic.Int64) func(int) (func() error, error) {
	return func(int) (func() error, error) {
		ch, err := c.Submit(engine.Request{Op: engine.OpRank, List: l})
		if err != nil {
			return nil, err
		}
		return func() error {
			r, err := load.Response(ch)
			switch {
			case err != nil:
				return load.CountShed(err)
			case len(r.Result.Ranks) != l.Len():
				return fmt.Errorf("short result: %d ranks for n=%d", len(r.Result.Ranks), l.Len())
			case traced && !r.Trace.Valid():
				return errors.New("traced request answered without a trace context")
			}
			batched.Add(int64(r.Batched))
			return nil
		}, nil
	}
}
