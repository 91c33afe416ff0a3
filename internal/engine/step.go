package engine

// This file is the engine's one dispatch path. All engine work is a
// plan step (internal/plan) bound to its inputs:
//
//   - a whole request is a KindWhole step carrying its Request and
//     *Result (Engine.RunInto, EnginePool.Submit/Do);
//   - a fused batch is a run of KindWhole steps, one per BatchItem,
//     served under a single machine acquisition (SubmitBatch);
//   - a sharded request is its plan's contract, solve and expand steps,
//     each carrying the coordinator-owned rank.ShardState (ShardedDo).
//
// run is the only way work reaches the machine, and serve is the only
// serving function: the closed check, validation, deadline, rebuild of
// a degraded machine, workspace and accounting reset, fault plan, the
// kernel under recover, the observer hook and the stats update each
// happen there once, for every kind of step. What differs between kinds
// is data on the step — its stats counter, its observer label, whether
// it validates the list.
//
// A shard step's cross-step state lives in the coordinator's
// ShardState, never in this engine's workspace, so resetting the arena
// here cannot invalidate another shard's step.

import (
	"context"
	"fmt"
	"time"

	"parlist/internal/list"
	"parlist/internal/plan"
	"parlist/internal/pram"
	"parlist/internal/rank"
)

// step is one unit of engine work: a plan step bound to its inputs.
type step struct {
	plan.Step
	// req is the request the step serves. A shard step carries its
	// sharded request: processor count, trace, the plan deadline (in
	// deadlineAt), and the fault plan on the one step it targets.
	req Request
	// res receives a KindWhole step's output.
	res *Result
	// item, when non-nil, is the fused-batch item the step serves: its
	// Ctx bounds the step too, and its Err, Start and End receive the
	// outcome, so one failed item never fails its batchmates.
	item *BatchItem
	// st is a shard step's shared plan state.
	st *rank.ShardState
	// stats is a shard step's simulated accounting, valid after a
	// successful run; a KindWhole step's lands in res.Stats.
	stats pram.Stats
}

// wholeStep is the trivial plan's one step: the template of every
// whole-request step.
var wholeStep = plan.Whole().Steps[0]

// solo reports a whole request served on its own rather than inside a
// fused batch: only such a step may be answered from the result cache,
// and only its pool future emits the trace's root span.
func (s *step) solo() bool { return s.Kind == plan.KindWhole && s.item == nil }

// sim returns where the step's simulated accounting lands.
func (s *step) sim() *pram.Stats {
	if s.Kind == plan.KindWhole {
		return &s.res.Stats
	}
	return &s.stats
}

// label is the step's observer label: the op name of a whole request,
// the step kind of a plan step. All are constants, so observation does
// not allocate.
func (s *step) label() string {
	switch s.Kind {
	case plan.KindWhole:
		return s.req.Op.String()
	case plan.KindLocalContract:
		return "step-contract"
	case plan.KindReducedSolve:
		return "step-solve"
	case plan.KindLocalExpand:
		return "step-expand"
	}
	return "step"
}

// context returns the context bounding the step: its batch item's own
// when it has one, else the run's.
func (s *step) context(ctx context.Context) context.Context {
	if s.item != nil && s.item.Ctx != nil {
		return s.item.Ctx
	}
	return ctx
}

// run serves steps back-to-back under one acquisition of the machine,
// blocking until it is free or ctx is done. Deadlines are fixed before
// the wait, so time queued behind the machine spends the same budget as
// service. A ctx that is done before the machine is acquired fails the
// whole run. After that each step is served in turn; a step whose
// context has died is failed with its context's error without touching
// the machine. A batch item's outcome lands on the item; run returns
// the outcome of the last step without one.
func (e *Engine) run(ctx context.Context, steps []step) error {
	// A done context always wins, even when the machine is free (select
	// picks randomly among ready cases).
	if err := ctx.Err(); err != nil {
		return err
	}
	for i := range steps {
		s := &steps[i]
		s.req.deadlineAt = effectiveDeadline(s.context(ctx), &s.req)
	}
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-e.sem }()
	var err error
	for i := range steps {
		s := &steps[i]
		it := s.item
		if err = ctx.Err(); err == nil {
			err = s.context(ctx).Err()
		}
		if err == nil {
			if it != nil {
				it.Start = time.Now()
			}
			err = e.serve(s)
			if it != nil {
				it.End = time.Now()
			}
		}
		if it != nil {
			it.Err, err = err, nil
		}
	}
	return err
}

// effectiveDeadline derives a request's absolute deadline: the earliest
// of the context deadline, the deadline already armed on the request,
// and the request-relative budget measured from now. Requests without
// any deadline skip the clock reads entirely.
func effectiveDeadline(ctx context.Context, req *Request) time.Time {
	var at time.Time
	if d, ok := ctx.Deadline(); ok {
		at = d
	}
	if !req.deadlineAt.IsZero() && (at.IsZero() || req.deadlineAt.Before(at)) {
		at = req.deadlineAt
	}
	if req.Deadline > 0 {
		if t := time.Now().Add(req.Deadline); at.IsZero() || t.Before(at) {
			at = t
		}
	}
	return at
}

// serve serves one step on the held machine and accounts for it: the
// observer sees one observation and the cumulative stats one Requests
// (KindWhole) or Steps (plan step) tick per step, failures included.
func (e *Engine) serve(s *step) error {
	var t0 time.Time
	var arena0 uint64
	if e.cfg.Observer != nil {
		t0 = time.Now()
		arena0 = e.wsp.Stats().BytesAllocated
	}

	err := e.prepare(s)
	if err == nil {
		err = e.dispatch(s)
	}

	if o := e.cfg.Observer; o != nil {
		o.RequestObserved(s.label(), time.Since(t0), err != nil,
			e.wsp.Stats().BytesAllocated-arena0)
		if e.m != nil {
			// Close the step's trailing phase span so idle time between
			// steps is not charged to it.
			e.m.FlushSpans()
		}
	}

	st := <-e.statsCh
	if s.Kind == plan.KindWhole {
		st.Requests++
	} else {
		st.Steps++
	}
	if err != nil {
		st.Failures++
	} else {
		st.SimTime += s.sim().Time
		st.SimWork += s.sim().Work
	}
	st.Arena = e.wsp.Stats()
	e.statsCh <- st
	return err
}

// prepare readies the machine for s: validate the request, rebuild a
// missing, resized, degraded or killed machine, recycle the scratch
// epoch, rewind the accounting, and (re)install the step's fault plan
// and deadline. The pool's round counter rewinds with the accounting,
// so fault coordinates never depend on how many steps this machine
// served before, and a stale deadline can never leak from an aborted
// predecessor. Only a KindWhole step validates its list — a sharded
// plan's coordinator validates it once for all of its steps.
func (e *Engine) prepare(s *step) error {
	req := &s.req
	if e.closed {
		return fmt.Errorf("engine: %w", ErrClosed)
	}
	if req.List == nil {
		return fmt.Errorf("engine: %w", ErrNilList)
	}
	p := req.Processors
	if p == 0 {
		p = e.cfg.Processors
	}
	if p < 1 {
		return fmt.Errorf("engine: %d %w", p, ErrBadProcessors)
	}
	if e.cfg.Exec == pram.Native && req.Faults != nil {
		return fmt.Errorf("engine: fault plans: %w", ErrNativeUnsupported)
	}
	// A budget that died while the step waited (in the pool queue or
	// behind this machine's semaphore) fails before any machine work.
	if at := req.deadlineAt; !at.IsZero() {
		if now := time.Now(); now.After(at) {
			return fmt.Errorf("engine: deadline passed %v before dispatch: %w", now.Sub(at), ErrDeadlineExceeded)
		}
	}
	if e.m == nil || e.m.Processors() != p || e.m.Degraded() || e.killed {
		e.killed = false
		e.rebuild(p)
	}
	e.wsp.Reset()
	e.m.Reset()
	e.m.SetFaults(req.Faults)
	e.m.SetDeadline(req.deadlineAt)
	if s.Kind != plan.KindWhole {
		return nil
	}
	if err := req.List.ValidateInto(e.wsp.IntsNoZero(list.ValidateScratchLen(req.List.Len()))); err != nil {
		return err
	}
	res := s.res
	res.Op = req.Op
	res.Algorithm = ""
	res.In = res.In[:0]
	res.Labels = res.Labels[:0]
	res.Ranks = res.Ranks[:0]
	res.Size, res.Sets, res.Rounds, res.TableSize = 0, 0, 0, 0
	return nil
}

// dispatch runs the step's kernel on the prepared machine and snapshots
// its accounting, translating recovered executor failures (an injected
// worker panic, a stalled barrier abandoned by the watchdog, a deadline
// abort) into errors. The machine is left degraded by the first two;
// the next step rebuilds it.
func (e *Engine) dispatch(s *step) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = recoveredError(r)
		}
	}()
	switch s.Kind {
	case plan.KindWhole:
		err = e.execute(&s.req, s.res)
	case plan.KindLocalContract:
		rank.ContractShard(e.m, s.st, s.Shard)
	case plan.KindReducedSolve:
		rank.SolveReduced(e.m, e.walker(), s.st)
	case plan.KindLocalExpand:
		rank.ExpandShard(e.m, s.st, s.Shard)
	default:
		err = fmt.Errorf("engine: step kind %v: %w", s.Kind, ErrUnknownOp)
	}
	if err == nil {
		e.m.SnapshotInto(s.sim())
	}
	return err
}

// recoveredError maps a recovered executor failure into the engine
// error taxonomy. Worker panics and barrier stalls are transient (the
// machine is degraded and rebuilt next use); a deadline abort leaves
// the machine healthy. Anything else is re-raised.
func recoveredError(r any) error {
	switch f := r.(type) {
	case *pram.WorkerPanic:
		return fmt.Errorf("engine: request failed: %w", f)
	case *pram.BarrierStall:
		return fmt.Errorf("engine: request failed: %w", f)
	case *pram.DeadlineExceeded:
		return fmt.Errorf("engine: aborted before round %d (%v over budget): %w", f.Round, f.Over, ErrDeadlineExceeded)
	default:
		panic(r)
	}
}
