// Package plan compiles a serving request into an explicit pipeline of
// execution steps with data-movement edges — the intermediate
// representation between "a request arrived" and "machines ran
// kernels". The step is the engine's only unit of work
// (internal/engine): a whole request is served as the trivial plan's
// one KindWhole step, a fused batch as a run of such steps, and a
// sharded rank/prefix request as the distributed list-ranking recipe
// (Sanders–Schimek–Uhl–Weidmann, PAPERS.md): contract locally per
// shard, exchange boundary records, solve the small reduced list,
// expand locally.
//
// The package is deliberately inert: a Plan names steps and their
// dependence edges but carries no closures, no machines and no data.
// The engine binds each step to its inputs; the pool's sharded
// scheduler (engine.EnginePool.ShardedDo) walks Stages and places each
// step on an engine; the kernels live in internal/rank. Keeping the
// shape separate from the execution is what lets the same plan be
// co-scheduled across warm engines today and across OS processes later
// (ROADMAP "scale past one process") — only the step bodies change.
//
// Exchange accounting follows the PEM-style cost model (arXiv
// 1406.3279, PAPERS.md): the unit of communication is the boundary
// segment record, and a plan's exchange volume is the bytes those
// records occupy crossing shard boundaries — gathered once to build the
// reduced list and scattered once as solved offsets.
package plan

import "fmt"

// Kind names what a step computes.
type Kind int

// The step kinds, in pipeline order.
const (
	// KindWhole is the trivial plan's only step: the entire request,
	// served by one engine exactly as the unsharded path does.
	KindWhole Kind = iota
	// KindLocalContract walks one shard's address range, contracting
	// every maximal in-shard segment to a (head, exit, total) record.
	// Shard-local reads and writes only; no cross-shard data moves.
	KindLocalContract
	// KindBoundaryExchange gathers every shard's segment records and
	// stitches them into the reduced inter-shard list. This is the
	// plan's only all-to-one data movement; its byte volume is the
	// PEM-style exchange cost the observability layer surfaces.
	KindBoundaryExchange
	// KindReducedSolve ranks the reduced list — one node per segment —
	// on a single engine and scatters the solved offsets back onto the
	// segment records (the return half of the exchange).
	KindReducedSolve
	// KindLocalExpand adds each node's segment offset to its local
	// rank, shard-parallel again. Purely shard-local, like contract.
	KindLocalExpand
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindWhole:
		return "whole"
	case KindLocalContract:
		return "contract"
	case KindBoundaryExchange:
		return "exchange"
	case KindReducedSolve:
		return "solve"
	case KindLocalExpand:
		return "expand"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Coordinator marks a step that runs on the scheduling goroutine
// itself rather than on a worker engine (Step.Shard for
// KindBoundaryExchange).
const Coordinator = -1

// Step is one unit of schedulable work. Deps are the step's
// data-movement edges: every listed step must have completed — and its
// outputs become visible through the shared shard state — before this
// one may start. Steps with disjoint dependence sets may run
// concurrently on different engines.
type Step struct {
	// ID is the step's index in Plan.Steps.
	ID int
	// Kind selects the kernel.
	Kind Kind
	// Shard is the shard this step owns ([0, K) for the Local* kinds),
	// Coordinator for steps the scheduler runs inline, and 0 for
	// KindWhole and KindReducedSolve (served by whichever engine the
	// scheduler picks; the value is informational there).
	Shard int
	// Deps lists the IDs of the steps whose outputs this step reads.
	Deps []int
}

// Plan is a compiled request pipeline. Steps are stored in a valid
// topological order (every dependence points backwards).
type Plan struct {
	// K is the shard fan-out the plan was compiled for (1 for the
	// trivial plan).
	K int
	// Steps is the pipeline in topological order.
	Steps []Step
}

// Whole returns the trivial one-step plan: the unsharded request path,
// expressed in the same vocabulary, so the engine has exactly one
// execution model — its whole-request step is this plan's step.
func Whole() Plan {
	return Plan{K: 1, Steps: []Step{{ID: 0, Kind: KindWhole}}}
}

// Sharded compiles the K-shard contract/exchange/solve/expand pipeline:
// K LocalContract steps, one BoundaryExchange depending on all of them,
// one ReducedSolve depending on the exchange, and K LocalExpand steps
// depending on the solve — 2K+2 steps total. K must be ≥ 1; at K = 1
// the plan runs the shard kernels on the whole list, which isolates
// the cost of sharding from the cost of the kernels.
func Sharded(k int) Plan {
	if k < 1 {
		panic(fmt.Sprintf("plan: Sharded(%d); want at least one shard", k))
	}
	p := Plan{K: k, Steps: make([]Step, 0, 2*k+2)}
	for s := 0; s < k; s++ {
		p.Steps = append(p.Steps, Step{ID: s, Kind: KindLocalContract, Shard: s})
	}
	exch := Step{ID: k, Kind: KindBoundaryExchange, Shard: Coordinator, Deps: make([]int, k)}
	for s := 0; s < k; s++ {
		exch.Deps[s] = s
	}
	p.Steps = append(p.Steps, exch)
	p.Steps = append(p.Steps, Step{ID: k + 1, Kind: KindReducedSolve, Deps: []int{k}})
	for s := 0; s < k; s++ {
		p.Steps = append(p.Steps, Step{ID: k + 2 + s, Kind: KindLocalExpand, Shard: s, Deps: []int{k + 1}})
	}
	return p
}

// Validate checks the plan's structural invariants: IDs match
// positions, every dependence points to an earlier step (topological
// order, hence acyclic), and Local* shards lie in [0, K).
func (p Plan) Validate() error {
	if p.K < 1 {
		return fmt.Errorf("plan: K = %d, want ≥ 1", p.K)
	}
	for i, s := range p.Steps {
		if s.ID != i {
			return fmt.Errorf("plan: step %d carries ID %d", i, s.ID)
		}
		for _, d := range s.Deps {
			if d < 0 || d >= i {
				return fmt.Errorf("plan: step %d depends on %d (not an earlier step)", i, d)
			}
		}
		switch s.Kind {
		case KindLocalContract, KindLocalExpand:
			if s.Shard < 0 || s.Shard >= p.K {
				return fmt.Errorf("plan: step %d (%v) owns shard %d of %d", i, s.Kind, s.Shard, p.K)
			}
		}
	}
	return nil
}

// Stages groups the steps into barrier-separated waves: stage i holds
// every step all of whose dependences resolved in stages < i, so the
// steps inside one stage are mutually independent and may be
// co-scheduled. This is the scheduler's execution order.
func (p Plan) Stages() [][]int {
	stageOf := make([]int, len(p.Steps))
	max := 0
	for i, s := range p.Steps {
		st := 0
		for _, d := range s.Deps {
			if stageOf[d]+1 > st {
				st = stageOf[d] + 1
			}
		}
		stageOf[i] = st
		if st > max {
			max = st
		}
	}
	out := make([][]int, max+1)
	for i, st := range stageOf {
		out[st] = append(out[st], i)
	}
	return out
}

// Boundary-record sizing for the PEM-style exchange accounting: each
// segment contributes one gathered record (head, exit successor, total
// — three machine words) and one scattered offset word on the way
// back.
const (
	// SegRecordBytes is the gathered per-segment record size.
	SegRecordBytes = 3 * 8
	// OffsetBytes is the scattered per-segment solved offset size.
	OffsetBytes = 8
)

// ExchangeBytes is the plan-level exchange volume for a run that
// produced segments boundary segments: the gather plus the scatter.
func ExchangeBytes(segments int) int64 {
	return int64(segments) * (SegRecordBytes + OffsetBytes)
}
