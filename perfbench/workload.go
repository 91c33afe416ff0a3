package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"parlist/internal/engine"
	"parlist/internal/list"
	"parlist/internal/pram"
)

// Fixed open-loop rates: about half (serve_uniform) and 40% (serve_mixed)
// of the lower quartile of closed-loop goodput over twenty runs of each on
// a shared 2-vCPU host, whose goodput varied threefold with the CPU time
// its hypervisor took. Below that capacity the open loop measures
// latency rather than a growing backlog. They are part of the benchmark
// definition and are never derived per run.
const (
	uniformRate = 650.0
	mixedRate   = 470.0
)

// processors is parlistd's default simulated processor count; the
// in-process layers and the reference engine use the same value.
const processors = 256

// input is one generated request together with the reference result a
// pram.Sequential engine computed for it at set-up.
type input struct {
	req    engine.Request
	ref    *engine.Result
	n      int
	shards int    // > 0: served by EnginePool.ShardedDo with this fan-out
	body   []byte // pre-encoded HTTP/JSON request body
}

// workload is one named traffic mix: its inputs, the deterministic
// order in which requests draw them, and its load shape.
type workload struct {
	name      string
	served    bool
	inputs    []*input
	order     []int   // request i uses inputs[order[i%len(order)]]
	rate      float64 // open-loop requests/s (served workloads)
	httpEvery int     // every httpEvery-th request goes over HTTP/JSON (0 = none)
	limit     time.Duration
	// wsBytes is the computed working set of one request: the int64
	// arrays the kernel reads and writes at the workload's largest n.
	wsBytes int64
}

func (w *workload) pick(i int) *input { return w.inputs[w.order[i%len(w.order)]] }

func (w *workload) isHTTP(i int) bool { return w.httpEvery > 0 && i%w.httpEvery == w.httpEvery-1 }

// mixedOps are serve_mixed's six request shapes, in equal shares.
var mixedOps = []engine.Request{
	{Op: engine.OpMatching, Algorithm: engine.AlgoMatch4},
	{Op: engine.OpPartition, Iters: 2},
	{Op: engine.OpThreeColor},
	{Op: engine.OpMIS},
	{Op: engine.OpRank},
	{Op: engine.OpPrefix},
}

// buildWorkload generates a workload's inputs from seed and computes
// every reference result. Nothing here is timed.
func buildWorkload(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &workload{name: name}
	switch name {
	case "serve_uniform":
		w.served, w.rate, w.limit = true, uniformRate, 20*time.Millisecond
		for i := 0; i < 64; i++ {
			w.inputs = append(w.inputs, &input{req: engine.Request{Op: engine.OpRank,
				List: list.RandomList(4096, rng.Int63())}})
		}
		w.order = make([]int, 1<<16)
		for i := range w.order {
			w.order[i] = rng.Intn(len(w.inputs))
		}
		w.wsBytes = 2 * 8 * 4096
	case "serve_mixed":
		w.served, w.rate, w.httpEvery, w.limit = true, mixedRate, 8, 20*time.Millisecond
		const perOp = 64
		for _, shape := range mixedOps {
			for j := 0; j < perOp; j++ {
				n := int(math.Round(math.Exp2(8 + 6*rng.Float64())))
				req := shape
				req.List = list.RandomList(n, rng.Int63())
				if req.Op == engine.OpPrefix {
					req.Values = randomValues(rng, n)
				}
				w.inputs = append(w.inputs, &input{req: req})
			}
		}
		w.order = make([]int, 6*(1<<13))
		for i := range w.order {
			w.order[i] = (i%len(mixedOps))*perOp + rng.Intn(perOp)
		}
		rng.Shuffle(len(w.order), func(i, j int) { w.order[i], w.order[j] = w.order[j], w.order[i] })
		w.wsBytes = 3 * 8 * (1 << 14)
	case "bulk_large":
		w.limit = 2 * time.Second
		const n = 1 << 20
		for j := 0; j < 2; j++ {
			l := list.RandomList(n, rng.Int63())
			vals := randomValues(rng, n)
			// Kinds round-robin: rank, Match4, prefix, sharded rank (K = 2).
			w.inputs = append(w.inputs,
				&input{req: engine.Request{Op: engine.OpRank, List: l}},
				&input{req: engine.Request{Op: engine.OpMatching, Algorithm: engine.AlgoMatch4, List: l}},
				&input{req: engine.Request{Op: engine.OpPrefix, List: l, Values: vals}},
				&input{req: engine.Request{Op: engine.OpRank, List: l}, shards: 2})
		}
		w.order = make([]int, len(w.inputs))
		for i := range w.order {
			w.order[i] = i
		}
		w.wsBytes = 3 * 8 * n
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	for _, in := range w.inputs {
		in.n = in.req.List.Len()
		if w.served {
			body, err := json.Marshal(jsonBody(&in.req))
			if err != nil {
				return nil, err
			}
			in.body = body
		}
	}
	return w, computeReferences(w.inputs)
}

func randomValues(rng *rand.Rand, n int) []int {
	v := make([]int, n)
	for i := range v {
		v[i] = rng.Intn(1000)
	}
	return v
}

// computeReferences runs every distinct request once on a pram.Sequential
// engine. A sharded request's reference is the plain request's result,
// which the sharded plan must reproduce exactly.
func computeReferences(inputs []*input) error {
	eng := engine.New(engine.Config{Processors: processors, Exec: pram.Sequential})
	defer eng.Close()
	for _, in := range inputs {
		res, err := eng.Run(context.Background(), in.req)
		if err != nil {
			return fmt.Errorf("reference %v n=%d: %w", in.req.Op, in.n, err)
		}
		in.ref = res
	}
	return nil
}

// sameResult reports whether got carries exactly the reference output.
// With cost set, a simulated op must also reproduce the reference's PRAM
// step and work counts; native kernels charge nothing and report zero.
// A sharded plan charges its own stages, so its cost is not compared.
func sameResult(got, ref *engine.Result, cost bool) bool {
	if cost && got.Stats.Time != 0 && (got.Stats.Time != ref.Stats.Time || got.Stats.Work != ref.Stats.Work) {
		return false
	}
	return got.Size == ref.Size && got.Sets == ref.Sets &&
		slices.Equal(got.In, ref.In) && slices.Equal(got.Labels, ref.Labels) &&
		slices.Equal(got.Ranks, ref.Ranks)
}

// tally counts outcomes: every attempted request is exactly one of ok or
// failed, and wrong counts the failed ones that returned a result that
// differs from the reference.
type tally struct {
	mu                           sync.Mutex
	attempted, ok, failed, wrong int
	statusFail, shed, transport  int
}

// Failure classes of a non-OK outcome.
const (
	outOK = iota
	outStatus
	outShed
	outTransport
	outWrong
)

func (t *tally) add(class int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	switch class {
	case outOK:
		t.ok++
		return
	case outStatus:
		t.statusFail++
	case outShed:
		t.shed++
	case outTransport:
		t.transport++
	case outWrong:
		t.wrong++
	}
	t.failed++
}

// classify checks an OK result against its reference.
func classify(in *input, got *engine.Result) int {
	if sameResult(got, in.ref, in.shards == 0) {
		return outOK
	}
	return outWrong
}

// selfTest proves the oracle catches a corrupted result: an exact copy
// of a reference passes, and the same copy with one element changed is
// counted as wrong and failed.
func selfTest(in *input) error {
	var t tally
	good := cloneResult(in.ref)
	t.add(classify(in, good))
	bad := cloneResult(in.ref)
	switch {
	case len(bad.Ranks) > 0:
		bad.Ranks[len(bad.Ranks)/2]++
	case len(bad.Labels) > 0:
		bad.Labels[len(bad.Labels)/2]++
	case len(bad.In) > 0:
		bad.In[len(bad.In)/2] = !bad.In[len(bad.In)/2]
	}
	t.add(classify(in, bad))
	if t.attempted != 2 || t.ok != 1 || t.wrong != 1 || t.failed != 1 {
		return fmt.Errorf("self-test: oracle counted %d ok and %d wrong of %d, want 1 and 1 of 2",
			t.ok, t.wrong, t.attempted)
	}
	return nil
}

func cloneResult(r *engine.Result) *engine.Result {
	c := *r
	c.In = slices.Clone(r.In)
	c.Labels = slices.Clone(r.Labels)
	c.Ranks = slices.Clone(r.Ranks)
	return &c
}
