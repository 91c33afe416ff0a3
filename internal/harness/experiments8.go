package harness

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"parlist/internal/engine"
	"parlist/internal/list"
	"parlist/internal/load"
	"parlist/internal/obs"
	"parlist/internal/pram"
	"parlist/internal/server"
)

// runE22 measures end-to-end request tracing on the serving path: the
// wire-path workload of E21 (flat-out rank requests through the
// coalescing batcher, batch=8) repeated across tracing configurations,
// from tracing disabled through head-sampling every request at tail
// keep rates 1.0 down to 0.01.
//
// Signals per cell:
//
//   - achieved/s and overhead: the throughput cost of the span path.
//     The acceptance bound is ≤ 3% ns/op over the untraced control at
//     full head sampling — on a 1-CPU host the run-to-run noise of
//     identical configs is of the same order, so the recorded overhead
//     is a noise-floor measurement, not a precise tax (the
//     deterministic guard — tracing adds zero allocations with no
//     collector attached — is pinned by TestTraceDetachedZeroAlloc).
//   - roots/kept: the tail-sampling funnel. Every trace completes a
//     root (roots ≈ served requests); the kept count follows the keep
//     rate plus the always-keep rules (cold-start, errors, slow tail),
//     and the ring bound caps what /debug/traces can return.
//   - ring spans: memory actually held — bounded by 16 stripes × 32
//     traces regardless of traffic, the no-unbounded-growth guarantee.
//   - p50/p99: client round trip, unchanged ordering across cells.
func runE22(cfg Config) ([]*Table, error) {
	n := 4096
	requests := 2000
	keeps := []float64{1, 0.1, 0.01}
	if cfg.Quick {
		n = 512
		requests = 150
		keeps = []float64{1, 0.1}
	}
	l := list.RandomList(n, cfg.Seed)

	t := &Table{
		Title: fmt.Sprintf("E22 — end-to-end tracing: overhead and tail-sampling funnel, rank n=%d, batch=8, 2 engines, GOMAXPROCS = %d",
			n, runtime.GOMAXPROCS(0)),
		Note: "flat-out rank requests over the binary framing; trace cells head-sample every request and " +
			"record the full inbox→batch→queue→engine span tree into the tail-sampling recorder — " +
			"overhead is ns/op versus the untraced control (≤ 3% acceptance bound, host noise is the same " +
			"order on 1 CPU), kept/roots is the tail-sampling funnel, ring spans the bounded memory held",
		Header: []string{"tracing", "keep", "served", "achieved/s", "ns/op", "overhead", "roots", "kept", "ring spans", "p50", "p99"},
	}

	base, _, err := e22Cell(cfg, l, requests, false, 0)
	if err != nil {
		return nil, fmt.Errorf("E22 untraced: %w", err)
	}
	baseNs := base.nsPerOp
	t.Rows = append(t.Rows, base.row("off", "-", "-"))
	for _, keep := range keeps {
		cell, rec, err := e22Cell(cfg, l, requests, true, keep)
		if err != nil {
			return nil, fmt.Errorf("E22 keep=%g: %w", keep, err)
		}
		st := rec.Stats()
		overhead := fmt.Sprintf("%+.1f%%", 100*(cell.nsPerOp-baseNs)/baseNs)
		row := cell.row("on", fmt.Sprintf("%.2f", keep), overhead)
		row[6] = fmt.Sprintf("%d", st.Roots)
		row[7] = fmt.Sprintf("%d", st.Kept)
		row[8] = fmt.Sprintf("%d", st.Spans)
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}, nil
}

// e22Result is one cell's client-side measurement.
type e22Result struct {
	served   int
	achieved float64
	nsPerOp  float64
	p50, p99 time.Duration
}

func (r *e22Result) row(tracing, keep, overhead string) []string {
	return []string{
		tracing, keep,
		fmt.Sprintf("%d", r.served),
		fmt.Sprintf("%.0f", r.achieved),
		fmt.Sprintf("%.0f", r.nsPerOp),
		overhead,
		"-", "-", "-",
		r.p50.Round(time.Microsecond).String(),
		r.p99.Round(time.Microsecond).String(),
	}
}

// e22Cell drives one tracing configuration end to end: fresh pool and
// server, real listener, one pipelined client submitting flat-out,
// graceful drain. With traced set the server head-samples every
// request (TraceSample 1) and the pool's collector feeds the same
// recorder, so each request's full span tree is assembled.
func e22Cell(cfg Config, l *list.List, requests int, traced bool, keep float64) (*e22Result, *obs.SpanRecorder, error) {
	var rec *obs.SpanRecorder
	poolCfg := engine.PoolConfig{
		Engines:    2,
		QueueDepth: 256,
		Engine:     engine.Config{Processors: 256, Exec: cfg.exec(pram.Native)},
	}
	if traced {
		rec = obs.NewSpanRecorder(obs.NewTraceSource(cfg.Seed), keep)
		c := obs.NewCollector(obs.NewRegistry())
		c.AttachSpans(rec)
		poolCfg.Observer = c
	}
	c, drain, err := load.Loopback(poolCfg, server.Config{BatchSize: 8,
		MaxWait: 500 * time.Microsecond, Trace: rec, TraceSample: 1}, "E22")
	if err != nil {
		return nil, nil, err
	}
	var batched atomic.Int64
	r := load.Open(0, requests, wireRanks(c, l, traced, &batched))
	if err := drain(); err != nil {
		return nil, nil, err
	}
	if r.Err != nil {
		return nil, nil, fmt.Errorf("%d of %d requests failed: %w", r.Failed, requests, r.Err)
	}
	if r.Shed > 0 {
		return nil, nil, fmt.Errorf("%d of %d requests shed", r.Shed, requests)
	}
	return &e22Result{
		served:   r.Served,
		achieved: r.Rate(),
		nsPerOp:  float64(r.Elapsed.Nanoseconds()) / float64(r.Served),
		p50:      r.Quantile(0.50),
		p99:      r.Quantile(0.99),
	}, rec, nil
}
