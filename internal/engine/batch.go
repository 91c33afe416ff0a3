package engine

// This file is batch-aware submission: the serving daemon's coalescing
// batcher (internal/server) fuses many small concurrent same-op,
// same-size-class requests into ONE pool submission. The fused batch is
// one future carrying a run of whole-request steps, one per item, and
// the engine serves the run under ONE machine acquisition (step.go) —
// one trip through the shard queue, one dispatcher wakeup, one
// semaphore handshake for every item. Each item is served by the same
// serve function a solo request takes, on a machine whose arena already
// holds the right size-class buffers, so a coalesced batch's results
// are bit-identical to per-request Do (pinned by
// TestBatchBitIdenticalAllOps) while the per-request dispatch overhead
// is paid once per batch instead of once per item.

import (
	"context"
	"errors"
	"time"
)

// BatchItem is one request of a fused batch. The caller owns the item:
// Req and Ctx are read by the engine, Res/Err/Start/End are written by
// it. Once SubmitBatch's Future resolves, Err holds the item's outcome
// and Res its output; Start and End bound the item's service interval
// on the machine — the service-stage timestamps the daemon surfaces to
// clients.
type BatchItem struct {
	// Ctx is the item's own cancellation context (nil = the batch
	// context). An item whose context is done by the time the machine
	// reaches it fails with that context's error without running.
	Ctx context.Context
	// Req is the item's request. All items of one batch should share an
	// op and size class — the batcher guarantees it — but the engine
	// serves mixed batches correctly too; mixing merely forfeits the
	// arena-affinity payoff.
	Req Request
	// Res receives the item's output (slice capacity is reused across
	// batches, like RunInto's caller-owned Result).
	Res Result
	// Err is the item's outcome: nil on success, or the same typed error
	// the request would have produced through Do.
	Err error
	// Start and End bound the item's service interval on the machine
	// (both zero when the item never reached it).
	Start, End time.Time
}

// SizeClass reports the pool's affinity bucket for an input of n nodes
// — the power-of-two class shared with the workspace arena. The
// serving batcher keys coalescing groups by (op, SizeClass) so every
// fused batch lands on an engine whose arena is already warm for that
// class.
func SizeClass(n int) int { return sizeClass(n) }

// SubmitBatch admits a fused batch as one queue entry and returns its
// Future. Admission follows Submit's discipline exactly: it never
// blocks, a full queue sheds the whole batch with ErrQueueFull (no item
// ran — the caller can re-split or shed), and a closed pool fails with
// ErrPoolClosed. The shard is chosen by the first item's size class, so
// a batcher that keys batches by (op, size class) lands every batch on
// the engine whose arena is already warm for that class.
//
// When the Future resolves, every item's Err and Res are populated;
// Wait's error is reserved for whole-batch failures (a ctx that died
// before the machine was acquired). Per-item failures keep their types
// and never abort the batch: a transient fault degrades the machine and
// the next item rebuilds it. A batch never touches the result cache and
// is never retried as a unit. Per-item deadlines (Req.Deadline) are
// armed at admission, so queue time and time spent waiting behind
// earlier batchmates spend the same budget as service. Each item counts
// as one request in the pool and engine Stats; the batch counts once in
// PoolStats.Batches.
func (p *EnginePool) SubmitBatch(ctx context.Context, items []*BatchItem) (*Future, error) {
	if len(items) == 0 {
		return nil, errors.New("engine pool: empty batch")
	}
	f := &Future{done: make(chan struct{}), steps: make([]step, len(items))}
	for i, it := range items {
		f.steps[i] = step{Step: wholeStep, req: it.Req, res: &it.Res, item: it}
	}
	if err := p.shed(p.submit(ctx, f)); err != nil {
		return nil, err
	}
	return f, nil
}
