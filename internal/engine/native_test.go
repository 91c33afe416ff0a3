package engine

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"parlist/internal/list"
	"parlist/internal/matching"
	"parlist/internal/partition"
	"parlist/internal/pram"
	"parlist/internal/verify"
)

// nativeEngines returns a native-executor engine (4 real workers, so
// the team kernels actually fan out) and a sequential reference engine.
func nativeEngines(t *testing.T) (native, seq *Engine) {
	t.Helper()
	native = New(Config{Processors: 8, Exec: pram.Native, Workers: 4})
	t.Cleanup(func() { native.Close() })
	seq = New(Config{Processors: 8})
	t.Cleanup(func() { seq.Close() })
	return native, seq
}

// TestNativeMatchesSequentialAllOps is the acceptance-level equivalence
// suite: every request shape — all four matching algorithms plus the
// sequential and randomized baselines, partition under both variants,
// both native-served rank schemes and both fallback schemes, prefix,
// 3-colouring, MIS, and schedule — returns outputs bit-identical to the
// sequential engine's. Requests served by native kernels (Match4
// default, partition, contraction/wyllie ranks, prefix) must report
// zero simulated Time/Work; requests on the simulated fallback must
// report Stats bit-identical to sequential's.
func TestNativeMatchesSequentialAllOps(t *testing.T) {
	native, seq := nativeEngines(t)
	l := list.RandomList(3000, 42)
	zz := list.ZigZagList(701)

	vals := make([]int, l.Len())
	for i := range vals {
		vals[i] = i%13 - 6
	}
	pm := pram.New(4)
	labels, K := matching.PartitionIterated(pm, l, nil, 3)
	pm.Close()

	cases := []struct {
		name   string
		req    Request
		kernel bool // served by a native kernel (zero simulated cost)
	}{
		{"match1", Request{Op: OpMatching, List: l, Algorithm: AlgoMatch1}, false},
		{"match2", Request{Op: OpMatching, List: l, Algorithm: AlgoMatch2}, false},
		{"match3", Request{Op: OpMatching, List: l, Algorithm: AlgoMatch3}, false},
		{"match4", Request{Op: OpMatching, List: l, Algorithm: AlgoMatch4}, true},
		{"match4-zigzag", Request{Op: OpMatching, List: zz, Algorithm: AlgoMatch4}, true},
		{"match4-i1", Request{Op: OpMatching, List: l, Algorithm: AlgoMatch4, I: 1}, true},
		{"match4-table", Request{Op: OpMatching, List: l, Algorithm: AlgoMatch4, UseTable: true}, false},
		{"match4-lsb", Request{Op: OpMatching, List: l, Algorithm: AlgoMatch4, Variant: partition.LSB}, false},
		{"sequential", Request{Op: OpMatching, List: l, Algorithm: AlgoSequential}, false},
		{"randomized", Request{Op: OpMatching, List: l, Algorithm: AlgoRandomized, Seed: 9}, false},
		{"partition-i1", Request{Op: OpPartition, List: l, Iters: 1}, true},
		{"partition-i3", Request{Op: OpPartition, List: l, Iters: 3}, true},
		{"partition-lsb", Request{Op: OpPartition, List: l, Iters: 2, Variant: partition.LSB}, true},
		{"threecolor", Request{Op: OpThreeColor, List: l}, false},
		{"mis", Request{Op: OpMIS, List: l}, false},
		{"rank-contraction", Request{Op: OpRank, List: l, Rank: RankContraction}, true},
		{"rank-wyllie", Request{Op: OpRank, List: l, Rank: RankWyllie}, true},
		{"rank-loadbalanced", Request{Op: OpRank, List: l, Rank: RankLoadBalanced}, false},
		{"rank-randommate", Request{Op: OpRank, List: l, Rank: RankRandomMate, Seed: 5}, false},
		{"prefix", Request{Op: OpPrefix, List: l, Values: vals}, true},
		{"schedule", Request{Op: OpSchedule, List: l, Labels: labels, K: K}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := native.Run(bg, tc.req)
			if err != nil {
				t.Fatalf("native: %v", err)
			}
			want, err := seq.Run(bg, tc.req)
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			if !reflect.DeepEqual(got.In, want.In) {
				t.Error("In diverges from sequential")
			}
			if !reflect.DeepEqual(got.Labels, want.Labels) {
				t.Error("Labels diverge from sequential")
			}
			if !reflect.DeepEqual(got.Ranks, want.Ranks) {
				t.Error("Ranks diverge from sequential")
			}
			if got.Size != want.Size || got.Sets != want.Sets {
				t.Errorf("detail diverges: got %d/%d want %d/%d",
					got.Size, got.Sets, want.Size, want.Sets)
			}
			if tc.kernel {
				if got.Stats.Time != 0 || got.Stats.Work != 0 {
					t.Errorf("native kernel charged %d/%d, want 0/0",
						got.Stats.Time, got.Stats.Work)
				}
			} else if got.Stats.Time != want.Stats.Time || got.Stats.Work != want.Stats.Work {
				t.Errorf("fallback accounting %d/%d diverges from sequential %d/%d",
					got.Stats.Time, got.Stats.Work, want.Stats.Time, want.Stats.Work)
			}

			// Independent from-first-principles checkers on the native
			// outputs, where the op has one.
			lst := tc.req.List
			switch tc.req.Op {
			case OpMatching, OpSchedule:
				if err := verify.MaximalMatching(lst, got.In); err != nil {
					t.Errorf("independent checker: %v", err)
				}
			case OpPartition:
				if err := verify.Partition(lst, got.Labels, got.Sets); err != nil {
					t.Errorf("independent checker: %v", err)
				}
			case OpRank:
				if err := verify.Ranks(lst, got.Ranks); err != nil {
					t.Errorf("independent checker: %v", err)
				}
			}
		})
	}
}

// TestNativeKernelEdgeSizes sweeps the kernel-served ops over the sizes
// that straddle the kernels' serial-fast-path and chunking thresholds
// (n < 64 splitter cutoff, n ≤ parties, singletons) and over generator
// families with adversarial address orders.
func TestNativeKernelEdgeSizes(t *testing.T) {
	native, seq := nativeEngines(t)
	gens := []struct {
		name string
		make func(n int) *list.List
	}{
		{"random", func(n int) *list.List { return list.RandomList(n, 3) }},
		{"reversed", list.ReversedList},
		{"zigzag", list.ZigZagList},
	}
	for _, g := range gens {
		for _, n := range []int{1, 2, 3, 5, 63, 64, 65, 257, 1000} {
			l := g.make(n)
			vals := make([]int, n)
			for i := range vals {
				vals[i] = (i*7)%19 - 9
			}
			reqs := []Request{
				{Op: OpMatching, List: l},
				{Op: OpRank, List: l, Rank: RankContraction},
				{Op: OpRank, List: l, Rank: RankWyllie},
				{Op: OpPrefix, List: l, Values: vals},
			}
			if n > 1 {
				// OpPartition is undefined at n = 1 on every executor:
				// the lone node's pseudo-successor is itself and f(a,a)
				// does not exist.
				reqs = append(reqs, Request{Op: OpPartition, List: l, Iters: 2})
			}
			for _, req := range reqs {
				got, err := native.Run(bg, req)
				if err != nil {
					t.Fatalf("%s/n=%d/%s: native: %v", g.name, n, req.Op, err)
				}
				want, err := seq.Run(bg, req)
				if err != nil {
					t.Fatalf("%s/n=%d/%s: sequential: %v", g.name, n, req.Op, err)
				}
				if !reflect.DeepEqual(got.In, want.In) ||
					!reflect.DeepEqual(got.Labels, want.Labels) ||
					!reflect.DeepEqual(got.Ranks, want.Ranks) {
					t.Errorf("%s/n=%d/%s: output diverges from sequential", g.name, n, req.Op)
				}
			}
		}
	}
}

// TestNativeLaneWalkEquivalence covers the lane-walk side of
// list.LaneWalkMin, where validation and the rank/prefix kernel switch
// from serial pointer chases to lane walks: on every generator, at
// sizes just below, at and above the crossover and well past it, native
// rank and prefix — whole and sharded at K ∈ {2, 3} — must be
// bit-identical to a Sequential engine's.
func TestNativeLaneWalkEquivalence(t *testing.T) {
	native, seq := nativeEngines(t)
	pool := NewPool(PoolConfig{Engines: 2, Engine: Config{Processors: 8, Exec: pram.Native, Workers: 2}})
	defer pool.Close()
	for _, g := range list.Generators() {
		for _, n := range []int{list.LaneWalkMin - 1, list.LaneWalkMin, list.LaneWalkMin + 1, 1 << 18} {
			l := g.Make(n, 13)
			vals := make([]int, n)
			for i := range vals {
				vals[i] = (i*11)%23 - 11
			}
			for _, req := range []Request{
				{Op: OpRank, List: l},
				{Op: OpPrefix, List: l, Values: vals},
			} {
				name := fmt.Sprintf("%s/n=%d/%s", g.Name, n, req.Op)
				want, err := seq.Run(bg, req)
				if err != nil {
					t.Fatalf("%s: sequential: %v", name, err)
				}
				got, err := native.Run(bg, req)
				if err != nil {
					t.Fatalf("%s: native: %v", name, err)
				}
				if !reflect.DeepEqual(got.Ranks, want.Ranks) {
					t.Fatalf("%s: native output diverges from sequential", name)
				}
				for _, k := range []int{2, 3} {
					sh, err := pool.ShardedDo(bg, req, k)
					if err != nil {
						t.Fatalf("%s/K=%d: sharded: %v", name, k, err)
					}
					if !reflect.DeepEqual(sh.Ranks, want.Ranks) {
						t.Fatalf("%s/K=%d: sharded output diverges from sequential", name, k)
					}
				}
			}
		}
	}
}

// TestNativeSteadyStateZeroAlloc extends the engine's headline number to
// the native executor: after warmup, kernel-served requests at a fixed
// n — matching, partition, rank, prefix — allocate nothing, below and
// above list.LaneWalkMin.
func TestNativeSteadyStateZeroAlloc(t *testing.T) {
	eng := New(Config{Processors: 8, Exec: pram.Native, Workers: 4})
	defer eng.Close()
	l := list.RandomList(4096, 5)
	vals := make([]int, l.Len())
	for i := range vals {
		vals[i] = i % 5
	}
	// Past list.LaneWalkMin, validation and the rank/prefix kernel take
	// the lane-walk path, which must be allocation-free too.
	big := list.RandomList(2*list.LaneWalkMin, 5)
	bigVals := make([]int, big.Len())
	for i := range bigVals {
		bigVals[i] = i % 5
	}
	for _, tc := range []struct {
		name string
		req  Request
	}{
		{"matching", Request{List: l}},
		{"partition", Request{Op: OpPartition, List: l, Iters: 2}},
		{"rank", Request{Op: OpRank, List: l, Rank: RankContraction}},
		{"prefix", Request{Op: OpPrefix, List: l, Values: vals}},
		{"matching-lanes", Request{List: big}},
		{"rank-lanes", Request{Op: OpRank, List: big, Rank: RankContraction}},
		{"prefix-lanes", Request{Op: OpPrefix, List: big, Values: bigVals}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var res Result
			run := func() {
				if err := eng.RunInto(bg, tc.req, &res); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm free lists, result capacity, stats buffers
			run()
			if avg := testing.AllocsPerRun(20, run); avg != 0 {
				t.Errorf("steady-state allocs/request = %v, want 0", avg)
			}
		})
	}
}

// TestNativeRejectsFaultPlans: fault coordinates are (round, worker)
// positions in the simulated round stream, which the native kernels
// bypass — the engine must refuse rather than silently not inject.
func TestNativeRejectsFaultPlans(t *testing.T) {
	eng := New(Config{Processors: 8, Exec: pram.Native, Workers: 4})
	defer eng.Close()
	l := list.RandomList(256, 1)
	_, err := eng.Run(bg, Request{List: l, Faults: &pram.FaultPlan{}})
	if !errors.Is(err, ErrNativeUnsupported) {
		t.Fatalf("err = %v, want ErrNativeUnsupported", err)
	}
	// The engine stays serviceable after the rejection.
	res, err := eng.Run(bg, Request{List: l})
	if err != nil {
		t.Fatalf("after rejection: %v", err)
	}
	if err := verify.MaximalMatching(l, res.In); err != nil {
		t.Errorf("after rejection: %v", err)
	}
}

// FuzzNativeEquivalence fuzzes the kernel-served request shapes through
// a native engine against a sequential reference: outputs must be
// bit-identical and pass the independent checkers.
func FuzzNativeEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(2))
	f.Add(int64(7), uint16(0), uint8(1))  // singleton list
	f.Add(int64(3), uint16(63), uint8(3)) // below the splitter cutoff
	f.Add(int64(9), uint16(64), uint8(1)) // at the splitter cutoff
	f.Add(int64(42), uint16(4999), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, nn uint16, ii uint8) {
		n := int(nn)%5000 + 1
		iters := int(ii)%4 + 1
		l := list.RandomList(n, seed)
		vals := make([]int, n)
		for i := range vals {
			vals[i] = int(seed+int64(i))%11 - 5
		}
		native := New(Config{Processors: 8, Exec: pram.Native, Workers: 4})
		defer native.Close()
		seq := New(Config{Processors: 8})
		defer seq.Close()
		reqs := []Request{
			{Op: OpMatching, List: l, I: iters},
			{Op: OpRank, List: l, Rank: RankContraction},
			{Op: OpRank, List: l, Rank: RankWyllie},
			{Op: OpPrefix, List: l, Values: vals},
		}
		if n > 1 {
			// f(a,a) is undefined, so OpPartition needs ≥ 2 nodes on
			// every executor.
			reqs = append(reqs, Request{Op: OpPartition, List: l, Iters: iters})
		}
		for _, req := range reqs {
			got, err := native.Run(bg, req)
			if err != nil {
				t.Fatalf("n=%d iters=%d %s: native: %v", n, iters, req.Op, err)
			}
			want, err := seq.Run(bg, req)
			if err != nil {
				t.Fatalf("n=%d iters=%d %s: sequential: %v", n, iters, req.Op, err)
			}
			if !reflect.DeepEqual(got.In, want.In) ||
				!reflect.DeepEqual(got.Labels, want.Labels) ||
				!reflect.DeepEqual(got.Ranks, want.Ranks) {
				t.Fatalf("n=%d iters=%d %s: native output diverges from sequential", n, iters, req.Op)
			}
			switch req.Op {
			case OpMatching:
				if err := verify.MaximalMatching(l, got.In); err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
			case OpPartition:
				if err := verify.Partition(l, got.Labels, got.Sets); err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
			case OpRank:
				if err := verify.Ranks(l, got.Ranks); err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
			}
		}
	})
}
