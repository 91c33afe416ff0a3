package engine

// Trace-span emission for the pool. Spans flow through the pool's
// Observer as obs.Span values (observe.go); every site gates on an
// observer being attached AND the request's TraceContext being sampled,
// so unsampled traffic never builds a span and the untraced request
// path is bit-for-bit the pre-tracing one — the zero-alloc steady-state
// guarantee and Stats bit-identity are preserved by construction, not
// by luck.
//
// Span topology is flat: one root "request" span per trace plus one
// child per stage ("queue", "engine"/"step-*", "retry", "exchange",
// "cache"), all parented directly onto the root. Children are emitted
// as their stage completes; the root is emitted last, at terminal
// resolution, because the recorder finalizes a trace when its root
// lands (obs.SpanRecorder).

import (
	"context"
	"errors"
	"time"

	"parlist/internal/obs"
	"parlist/internal/plan"
	"parlist/internal/pram"
)

// trace returns the trace context f's pool spans belong to: its
// request's, or its sharded request's for a plan step. A fused batch is
// untraced as a unit — the serving layer traces each fused item itself.
func (f *Future) trace() obs.TraceContext {
	if s0 := &f.steps[0]; s0.item == nil {
		return s0.req.Trace
	}
	return obs.TraceContext{}
}

// spanName names a step's engine-side span: "engine" for a whole
// request, the step's observer label ("step-contract", ...) for a plan
// step.
func (s *step) spanName() string {
	if s.Kind == plan.KindWhole {
		return "engine"
	}
	return s.label()
}

// childSpan emits one child span of tc's root; the recorder mints the
// span's own id. Callers must have checked p.cfg.Observer != nil &&
// tc.Sampled.
func (p *EnginePool) childSpan(tc obs.TraceContext, name string, shard, attempt int, start time.Time, d time.Duration, status string) {
	p.cfg.Observer.SpanObserved(obs.Span{TraceHi: tc.TraceHi, TraceLo: tc.TraceLo, ParentID: tc.SpanID,
		Name: name, Shard: shard, Attempt: attempt, Start: start, Dur: d, Status: status})
}

// rootSpan emits tc's root "request" span — the trace's final span.
// attempt carries the total retry attempts the request consumed.
func (p *EnginePool) rootSpan(tc obs.TraceContext, shard, attempt int, start time.Time, d time.Duration, status string) {
	p.cfg.Observer.SpanObserved(obs.Span{TraceHi: tc.TraceHi, TraceLo: tc.TraceLo, SpanID: tc.SpanID,
		Name: "request", Shard: shard, Attempt: attempt, Start: start, Dur: d, Status: status})
}

// spanStatus classifies an error as a span status tag ("" = success).
func spanStatus(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrDeadlineExceeded) || errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, ErrQueueFull):
		return "shed"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case pram.Transient(err):
		return "transient"
	default:
		return "error"
	}
}
