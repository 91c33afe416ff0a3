// Package engine provides the session layer of parlist: a long-lived
// Engine owning one simulated PRAM machine (with its persistent worker
// pool) and one workspace arena, serving algorithm requests through a
// single serialized entry point.
//
// The package-level functions in core construct a fresh machine per
// call and let every scratch array fall to the garbage collector; the
// engine instead keeps the machine warm and recycles the scratch, so
// the second and later requests at a fixed size run without heap
// allocation (BenchmarkEngineReuse asserts this). N concurrent callers
// may share one Engine: requests are serialized onto the machine, and
// every output is copied out of the workspace before the next request
// can reset it.
package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"parlist/internal/color"
	"parlist/internal/list"
	"parlist/internal/matching"
	"parlist/internal/obs"
	"parlist/internal/partition"
	"parlist/internal/pram"
	"parlist/internal/rank"
	"parlist/internal/ws"
)

// Algorithm names a maximal-matching algorithm.
type Algorithm string

// The available algorithms.
const (
	AlgoMatch1     Algorithm = "match1"     // iterated coin tossing, O(nG(n)/p + G(n))
	AlgoMatch2     Algorithm = "match2"     // sort-based optimal EREW, O(n/p + log n)
	AlgoMatch3     Algorithm = "match3"     // table lookup, O(n·logG(n)/p + logG(n))
	AlgoMatch4     Algorithm = "match4"     // §3 scheduling, O(n·log i/p + log^(i) n + log i)
	AlgoSequential Algorithm = "sequential" // greedy walk baseline, O(n)
	AlgoRandomized Algorithm = "randomized" // random coin tossing baseline
)

// RankScheme names a list-ranking algorithm.
type RankScheme string

// The available ranking schemes.
const (
	// RankContraction splices via per-round maximal matchings (default).
	RankContraction RankScheme = "contraction"
	// RankWyllie is pointer jumping, Θ(n log n) work.
	RankWyllie RankScheme = "wyllie"
	// RankLoadBalanced is the Anderson–Miller-style queue scheme.
	RankLoadBalanced RankScheme = "loadbalanced"
	// RankRandomMate is randomized contraction.
	RankRandomMate RankScheme = "randommate"
)

// Op selects what a Request computes.
type Op int

// The request operations.
const (
	// OpMatching computes a maximal matching (Request.Algorithm).
	OpMatching Op = iota
	// OpPartition computes an O(log^(i) n)-set matching partition
	// (Request.Iters applications of f).
	OpPartition
	// OpThreeColor computes a proper 3-colouring of the nodes.
	OpThreeColor
	// OpMIS computes a maximal independent set via maximal matching.
	OpMIS
	// OpRank computes rank-from-head for every node (Request.Rank).
	OpRank
	// OpPrefix computes data-dependent prefix sums (Request.Values).
	OpPrefix
	// OpSchedule converts an externally supplied matching partition
	// (Request.Labels, Request.K) into a maximal matching (§4).
	OpSchedule
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpMatching:
		return "matching"
	case OpPartition:
		return "partition"
	case OpThreeColor:
		return "threecolor"
	case OpMIS:
		return "mis"
	case OpRank:
		return "rank"
	case OpPrefix:
		return "prefix"
	case OpSchedule:
		return "schedule"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Typed request-validation errors. Callers test with errors.Is; the
// returned errors carry request detail around these sentinels.
var (
	// ErrClosed reports a request against a closed engine.
	ErrClosed = errors.New("engine closed")
	// ErrNilList reports a request with no input list.
	ErrNilList = errors.New("nil list")
	// ErrBadProcessors reports a negative simulated processor count.
	ErrBadProcessors = errors.New("processors must be ≥ 1")
	// ErrUnknownAlgorithm reports an Algorithm outside the known set.
	ErrUnknownAlgorithm = errors.New("unknown algorithm")
	// ErrUnknownRankScheme reports a RankScheme outside the known set.
	ErrUnknownRankScheme = errors.New("unknown ranking scheme")
	// ErrBadValues reports an OpPrefix value slice of the wrong length.
	ErrBadValues = errors.New("values length mismatch")
	// ErrBadIterations reports an OpPartition iteration count < 1.
	ErrBadIterations = errors.New("partition iterations must be ≥ 1")
	// ErrUnknownOp reports a Request.Op outside the known set.
	ErrUnknownOp = errors.New("unknown operation")
	// ErrNativeUnsupported reports a request feature the Native executor
	// cannot honour (currently: per-request fault plans, whose
	// (round, worker) coordinates are defined by the simulated round
	// stream the native kernels bypass).
	ErrNativeUnsupported = errors.New("not supported by the native executor")
	// ErrDeadlineExceeded reports a request that ran out of budget —
	// Request.Deadline or the context deadline — whether it was still
	// queued or already mid-service (the machine aborts between rounds;
	// see pram.DeadlineExceeded). Distinct from ErrQueueFull: a shed is
	// the pool protecting itself, a deadline is the caller bounding its
	// own wait, and the retry layer treats only the former as worth
	// backing off for.
	ErrDeadlineExceeded = errors.New("request deadline exceeded")
)

// Config fixes an Engine's machine shape. The simulated processor count
// can still be overridden per request; everything else is engine-wide.
type Config struct {
	// Processors is the default simulated PRAM processor count
	// (default 1); Request.Processors overrides it per request.
	Processors int
	// Exec selects the simulator executor (default pram.Sequential).
	Exec pram.Exec
	// Workers caps the real worker count for the parallel executors
	// (default GOMAXPROCS).
	Workers int
	// Watchdog arms the fused-round barrier watchdog on the pooled
	// executor (0 = disabled).
	Watchdog time.Duration
	// Tracer, when non-nil, records round-level logs of every request
	// served (entries accumulate across requests).
	Tracer *pram.Tracer
	// Observer, when non-nil, receives one wall-clock observation per
	// served request (latency, outcome, arena churn) and is attached to
	// the machine, so per-round wall time, barrier waits and phase spans
	// flow to the same sink. Detached (nil) observation costs nothing on
	// the request path. A pool sets it to PoolConfig.Observer.
	Observer Observer
}

// Request describes one computation. The zero value of every field is a
// sensible default; only Op and List are always meaningful.
type Request struct {
	// Op selects the computation (default OpMatching).
	Op Op
	// List is the input linked list (required).
	List *list.List
	// Processors overrides the engine's simulated processor count for
	// this request (0 = engine default; negative is an error).
	Processors int

	// Algorithm selects the maximal-matching algorithm for OpMatching
	// and the matching rounds beneath OpMIS (default AlgoMatch4).
	Algorithm Algorithm
	// I is Match4's adjustable parameter (default 3).
	I int
	// UseTable selects the Lemma 5 table-based partition in Match4.
	UseTable bool
	// CRCW selects the O(1) CRCW table build in Match3 (as in [7]).
	CRCW bool
	// Variant selects the matching partition function's bit choice
	// (default partition.MSB).
	Variant partition.Variant
	// Seed feeds the randomized algorithms.
	Seed int64

	// Iters is OpPartition's application count i (must be ≥ 1).
	Iters int
	// Rank selects the OpRank scheme (default RankContraction).
	Rank RankScheme
	// Values are OpPrefix's addends (length must equal the list's).
	Values []int
	// Labels and K are OpSchedule's externally supplied matching
	// partition: labels in [0, K), consecutive pointers distinct.
	Labels []int
	K      int

	// Faults installs a deterministic fault-injection plan for this
	// request only. Fault coordinates are request-relative: the pool's
	// round counter rewinds to zero at every request, so the same plan
	// hits the same rounds no matter how many requests ran before.
	// A pool with a retry policy applies the plan to the first attempt
	// only — it models an environment fault, which a retry on a healthy
	// engine escapes.
	Faults *pram.FaultPlan

	// Deadline bounds the request's total latency: admission, queueing
	// and service together (0 = unbounded). A request that exceeds it
	// fails with ErrDeadlineExceeded — resolved without touching an
	// engine when the budget dies in the queue, aborted between
	// simulated rounds when it dies mid-service. A context deadline is
	// honoured the same way; the earlier of the two wins.
	Deadline time.Duration

	// Trace is the request's distributed-tracing context (zero value =
	// untraced). It is observation-only: the computation, its Result
	// and its simulated Stats are bit-identical with or without it, it
	// never enters the result-cache key, and spans are emitted only
	// when Trace.Sampled and the pool has an Observer. The serving
	// daemon propagates it from the wire (X-Parlist-Trace / the binary
	// frame's trace block); in-process callers mint one from an
	// obs.TraceSource.
	Trace obs.TraceContext

	// deadlineAt is the absolute deadline the pool derives from
	// Deadline at admission, so queue time spends the same budget as
	// service time. Zero for direct engine calls.
	deadlineAt time.Time
}

// Result is one request's output. All slices are owned by the Result
// (copied out of the engine's workspace) and remain valid indefinitely.
// A Result may be reused across RunInto calls to avoid reallocation.
type Result struct {
	Op        Op
	Algorithm string
	// In is the matching / independent-set membership (OpMatching,
	// OpMIS, OpSchedule).
	In []bool
	// Labels are partition labels or colours (OpPartition, OpThreeColor).
	Labels []int
	// Ranks are ranks or prefix sums (OpRank, OpPrefix).
	Ranks []int
	// Size is the number of matched pointers (OpMatching, OpSchedule).
	Size int
	// Sets, Rounds and TableSize carry the algorithm-specific detail.
	Sets      int
	Rounds    int
	TableSize int
	// Stats is the simulated PRAM accounting for this request alone.
	// For a sharded request it aggregates the plan's steps: Time is the
	// sum over stages of the stage's slowest step, Work the sum over
	// all steps.
	Stats pram.Stats
	// Sharding carries the sharded-execution accounting (fan-out,
	// reduced-list size, exchange volume, per-shard balance) when the
	// result came from EnginePool.ShardedDo; nil otherwise.
	Sharding *ShardStats
}

// Stats are an engine's cumulative counters since construction.
type Stats struct {
	// Requests is the number of requests served (including failures).
	Requests int64
	// Steps is the number of sharded plan steps served (sub-request
	// work co-scheduled by ShardedDo; not included in Requests).
	Steps int64
	// Failures counts requests that returned an error (validation
	// failures and recovered machine faults alike).
	Failures int64
	// Rebuilds counts machine replacements after the first build — a
	// processor-count change or a degraded (post-fault) pool.
	Rebuilds int64
	// SimTime and SimWork accumulate the simulated PRAM step and
	// operation counts over all successful requests.
	SimTime int64
	SimWork int64
	// Arena is the workspace allocator's counters: steady state shows
	// Hits ≈ Gets and a flat BytesAllocated.
	Arena ws.Stats
}

type evalKey struct {
	v partition.Variant
	w int
}

// Engine owns one machine + workspace pair and serializes requests onto
// it. Safe for concurrent use.
type Engine struct {
	cfg Config

	// sem is a one-slot semaphore: the holder owns the machine, the
	// workspace and every non-atomic field below.
	sem chan struct{}

	closed bool
	// killed forces a machine rebuild on the next request — set by
	// Invalidate, the quarantine/chaos kill hook.
	killed      bool
	m           *pram.Machine
	wsp         *ws.Workspace
	runner      *matching.Runner
	runnerIters int
	native      *matching.NativeRunner // Exec == pram.Native fast path
	nativeIters int
	nativePart  *partition.NativeRunner // native partition kernel
	nativeWalk  *rank.NativeWalker      // native rank/prefix kernel
	evals       map[evalKey]*partition.Evaluator
	mres        matching.Result // runner output scratch

	statsCh chan Stats // 1-slot mailbox holding the cumulative counters
}

// New returns an idle engine; the machine is built on first use.
func New(cfg Config) *Engine {
	if cfg.Processors < 1 {
		cfg.Processors = 1
	}
	e := &Engine{
		cfg:     cfg,
		sem:     make(chan struct{}, 1),
		wsp:     ws.New(),
		evals:   make(map[evalKey]*partition.Evaluator),
		statsCh: make(chan Stats, 1),
	}
	e.statsCh <- Stats{}
	return e
}

// Stats returns the cumulative counters.
func (e *Engine) Stats() Stats {
	st := <-e.statsCh
	e.statsCh <- st
	return st
}

// Close shuts the engine down: the worker pool is released and further
// requests fail with ErrClosed. Close is idempotent.
func (e *Engine) Close() error {
	e.sem <- struct{}{}
	defer func() { <-e.sem }()
	if e.closed {
		return nil
	}
	e.closed = true
	if e.m != nil {
		e.m.Close()
	}
	return nil
}

// Invalidate tears down the engine's warm machine: the worker pool is
// released immediately and the next request pays a full rebuild (the
// Stats.Rebuilds counter records it). It blocks until any in-flight
// request finishes — the execution model has no mid-round preemption,
// so this is the strongest kill an external caller can deliver without
// wedging workers (mid-round deaths are modelled by injected fault
// plans instead). A no-op on a closed or never-used engine. This is
// the chaos harness's engine-kill hook and the quarantine rebuild
// trigger; normal serving never needs it.
func (e *Engine) Invalidate() {
	e.sem <- struct{}{}
	defer func() { <-e.sem }()
	if e.closed || e.m == nil {
		return
	}
	e.m.Close()
	e.killed = true
}

// Run serves one request, allocating a fresh Result.
func (e *Engine) Run(ctx context.Context, req Request) (*Result, error) {
	res := new(Result)
	if err := e.RunInto(ctx, req, res); err != nil {
		return nil, err
	}
	return res, nil
}

// RunInto serves one request into a caller-owned Result, reusing its
// slice capacity — the zero-allocation path for repeated requests.
// Blocks until the machine is free or ctx is done.
func (e *Engine) RunInto(ctx context.Context, req Request, res *Result) error {
	if res == nil {
		return errors.New("engine: RunInto with nil result")
	}
	s := [1]step{{Step: wholeStep, req: req, res: res}}
	return e.run(ctx, s[:])
}

// rebuild replaces the machine (first build included), keeping the
// workspace and its warm free lists.
func (e *Engine) rebuild(p int) {
	if e.m != nil {
		e.m.Close()
		st := <-e.statsCh
		st.Rebuilds++
		e.statsCh <- st
	}
	opts := []pram.Option{pram.WithExec(e.cfg.Exec), pram.WithWorkspace(e.wsp)}
	if e.cfg.Workers > 0 {
		opts = append(opts, pram.WithWorkers(e.cfg.Workers))
	}
	if e.cfg.Watchdog > 0 {
		opts = append(opts, pram.WithWatchdog(e.cfg.Watchdog))
	}
	if e.cfg.Tracer != nil {
		opts = append(opts, pram.WithTracer(e.cfg.Tracer))
	}
	if e.cfg.Observer != nil {
		opts = append(opts, pram.WithObserver(e.cfg.Observer))
	}
	e.m = pram.New(p, opts...)
	e.runner = nil // bound to the old machine
	e.native = nil
	e.nativePart = nil
	e.nativeWalk = nil
}

// eval returns the cached evaluator for (variant, list size).
func (e *Engine) eval(v partition.Variant, n int) *partition.Evaluator {
	w := 1
	for x := 2; x < n; x *= 2 {
		w++
	}
	if w < 2 {
		w = 2
	}
	k := evalKey{v, w}
	ev := e.evals[k]
	if ev == nil {
		ev = partition.NewEvaluator(v, w)
		e.evals[k] = ev
	}
	return ev
}

// execute runs a whole request's op on the prepared machine, copying
// its output into res.
func (e *Engine) execute(req *Request, res *Result) error {
	m, l := e.m, req.List
	n := l.Len()
	switch req.Op {
	case OpMatching:
		return e.runMatching(req, res)
	case OpPartition:
		if req.Iters < 1 {
			return fmt.Errorf("engine: i=%d: %w", req.Iters, ErrBadIterations)
		}
		var lab []int
		var rng int
		if e.cfg.Exec == pram.Native {
			if e.nativePart == nil {
				e.nativePart = partition.NewNativeRunner(m)
			}
			lab = e.nativePart.Iterate(l, e.eval(req.Variant, n), req.Iters)
			rng = partition.RangeAfter(n, req.Iters)
		} else {
			lab, rng = matching.PartitionIterated(m, l, e.eval(req.Variant, n), req.Iters)
		}
		res.Labels = append(res.Labels, lab...)
		res.Sets = rng
		res.Rounds = req.Iters
	case OpThreeColor:
		res.Labels = append(res.Labels, color.ThreeColor(m, l, e.eval(req.Variant, n))...)
	case OpMIS:
		i := req.I
		if i < 1 {
			i = 3
		}
		in, err := color.MISViaMatching(m, l, matching.Match4Config{I: i, UseTable: req.UseTable})
		if err != nil {
			return err
		}
		res.In = append(res.In, in...)
	case OpRank:
		scheme := req.Rank
		if scheme == "" {
			scheme = RankContraction
		}
		var rk []int
		var err error
		switch scheme {
		case RankContraction, RankWyllie:
			// Ranks are unique, so the native splitter-walk kernel is
			// output-identical to either simulated scheme.
			if e.cfg.Exec == pram.Native {
				rk = e.walker().Rank(l)
				break
			}
			if scheme == RankContraction {
				rk, _, err = rank.Rank(m, l, nil)
			} else {
				rk = rank.WyllieRank(m, l)
			}
		case RankLoadBalanced:
			rk, _, err = rank.LoadBalancedRank(m, l)
		case RankRandomMate:
			rk, _ = rank.RandomMateRank(m, l, req.Seed)
		default:
			return fmt.Errorf("engine: %q: %w", scheme, ErrUnknownRankScheme)
		}
		if err != nil {
			return err
		}
		res.Ranks = append(res.Ranks, rk...)
	case OpPrefix:
		if len(req.Values) != n {
			return fmt.Errorf("engine: %d values for %d nodes: %w", len(req.Values), n, ErrBadValues)
		}
		var out []int
		var err error
		if e.cfg.Exec == pram.Native {
			out = e.walker().Prefix(l, req.Values)
		} else {
			out, _, err = rank.Prefix(m, l, req.Values, nil)
		}
		if err != nil {
			return err
		}
		res.Ranks = append(res.Ranks, out...)
	case OpSchedule:
		r, err := matching.ScheduleMatching(m, l, req.Labels, req.K)
		if err != nil {
			return err
		}
		e.copyMatching(r, res)
	default:
		return fmt.Errorf("engine: %v: %w", req.Op, ErrUnknownOp)
	}
	return nil
}

// walker returns the native rank/prefix kernel bound to the current
// machine.
func (e *Engine) walker() *rank.NativeWalker {
	if e.nativeWalk == nil {
		e.nativeWalk = rank.NewNativeWalker(e.m)
	}
	return e.nativeWalk
}

// runMatching serves OpMatching. The default configuration (Match4,
// iterated partition, MSB variant) takes the reusable Runner fast path;
// every other selection falls back to the one-shot implementations on
// the same machine.
func (e *Engine) runMatching(req *Request, res *Result) error {
	m, l := e.m, req.List
	n := l.Len()
	algo := req.Algorithm
	if algo == "" {
		algo = AlgoMatch4
	}
	i := req.I
	if i < 1 {
		i = 3
	}
	var (
		r   *matching.Result
		err error
	)
	switch algo {
	case AlgoMatch4:
		if !req.UseTable && req.Variant == partition.MSB {
			if e.cfg.Exec == pram.Native {
				if e.native == nil || e.nativeIters != i {
					e.native, err = matching.NewNativeRunner(m, i)
					if err != nil {
						return err
					}
					e.nativeIters = i
				}
				if err := e.native.Run(l, &e.mres); err != nil {
					return err
				}
				e.copyMatching(&e.mres, res)
				return nil
			}
			if e.runner == nil || e.runnerIters != i {
				e.runner, err = matching.NewRunner(m, i)
				if err != nil {
					return err
				}
				e.runnerIters = i
			}
			if err := e.runner.Run(l, &e.mres); err != nil {
				return err
			}
			r = &e.mres
		} else {
			r, err = matching.Match4(m, l, e.eval(req.Variant, n), matching.Match4Config{I: i, UseTable: req.UseTable})
		}
	case AlgoMatch1:
		r = matching.Match1(m, l, e.eval(req.Variant, n))
	case AlgoMatch2:
		r = matching.Match2(m, l, e.eval(req.Variant, n))
	case AlgoMatch3:
		r, err = matching.Match3(m, l, e.eval(req.Variant, n), matching.Match3Config{CRCWBuild: req.CRCW})
	case AlgoSequential:
		in := matching.Sequential(l)
		m.Charge(int64(n), int64(n))
		r = &matching.Result{Algorithm: "sequential", In: in, Size: matching.Count(in)}
	case AlgoRandomized:
		in, rounds := matching.Randomized(m, l, req.Seed)
		r = &matching.Result{Algorithm: "randomized", In: in, Size: matching.Count(in), Rounds: rounds}
	default:
		return fmt.Errorf("engine: %q: %w", algo, ErrUnknownAlgorithm)
	}
	if err != nil {
		return err
	}
	e.copyMatching(r, res)
	return nil
}

// copyMatching moves a matching result into the caller-owned Result
// (res.In reuses capacity; r.In may alias the workspace).
func (e *Engine) copyMatching(r *matching.Result, res *Result) {
	res.Algorithm = r.Algorithm
	res.In = append(res.In, r.In...)
	res.Size = r.Size
	res.Sets = r.Sets
	res.Rounds = r.Rounds
	res.TableSize = r.TableSize
}
