package engine

import (
	"time"

	"parlist/internal/obs"
	"parlist/internal/pram"
)

// Observer is the serving stack's one observation sink: the simulator's
// hooks (pram.Observer, attached to every engine's machine) plus one
// hook per engine, pool, resilience, sharding and tracing event.
// obs.Collector is its implementation. PoolConfig.Observer reaches every
// layer of a pool and Config.Observer every layer of a lone engine.
//
// Observation is a side channel: with a nil observer each hook site is a
// nil check (TestEngineSteadyStateZeroAlloc pins 0 allocs/op), and with
// one attached the served results and their simulated Stats are
// bit-identical. Methods are called concurrently from callers,
// dispatchers, retry and quarantine goroutines and sharded-request
// coordinators.
type Observer interface {
	pram.Observer

	// RequestObserved reports one request or plan step after the
	// machine finished it: its label (the Op's String, or the step kind
	// "step-contract", "step-solve", "step-expand"), the engine-side wall
	// time (validation through result copy-out, queue wait excluded),
	// whether it failed, and the fresh bytes the workspace arena had to
	// allocate for it (0 in steady state).
	RequestObserved(op string, wall time.Duration, failed bool, arenaBytes uint64)

	// EnqueueObserved reports an admission; depth is the chosen shard's
	// queue depth just after the enqueue.
	EnqueueObserved(depth int)
	// DequeueObserved reports a future entering service (or resolving a
	// queued cancellation): wait is admission → dequeue, depth the
	// shard's remaining queue depth.
	DequeueObserved(wait time.Duration, depth int)
	// ShedObserved reports a Submit or SubmitBatch that returned
	// ErrQueueFull to its caller. Do and plan steps wait in the
	// backpressure loop instead and are never counted.
	ShedObserved()
	// CacheHitObserved reports a request answered from the result cache.
	CacheHitObserved()

	// RetryObserved reports one retry scheduled after a transient
	// failure on the given engine.
	RetryObserved(engine int)
	// DeadlineExceededObserved reports a request failed with
	// ErrDeadlineExceeded (queued, mid-service, or in retry backoff).
	DeadlineExceededObserved()
	// BreakerStateObserved reports engine's breaker entering state
	// (BreakerState as an int: 0 closed, 1 open, 2 half-open).
	BreakerStateObserved(engine, state int)
	// QuarantineObserved reports engine's readmission after quarantine,
	// with the total open → closed duration.
	QuarantineObserved(engine int, d time.Duration)

	// ShardedRequestObserved reports one completed sharded request: its
	// fan-out, the reduced inter-shard list's length, the PEM-style
	// exchange volume in bytes, and the contract-stage imbalance
	// (slowest over mean shard wall time, in permille; 1000 = balanced).
	ShardedRequestObserved(shards, segments int, exchangeBytes, imbalancePermille int64)
	// ShardStepObserved reports one engine-run plan step: its kind
	// label, owning shard, wall time, and how long it then waited at the
	// stage barrier for the stage's slowest step.
	ShardStepObserved(kind string, shard int, wall, barrierWait time.Duration)

	// SpanObserved reports one completed span of a sampled trace (see
	// span.go for the topology). Only requests whose TraceContext is
	// sampled emit spans, so unsampled traffic never calls it.
	SpanObserved(s obs.Span)
}

// PoolObserver is the old name of PoolConfig.Observer's type. It stays
// only because the gated benchmark module (perfbench/bulk.go) names it,
// and that module changes only together with the benchmark.
type PoolObserver = Observer

// The collector must keep satisfying every hook: a renamed method is a
// compile error here, not a metric family that silently stops.
var _ Observer = (*obs.Collector)(nil)
