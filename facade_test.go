package parlist

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"parlist/internal/list"
	"parlist/internal/partition"
)

// These tests pin the façade's own contract from inside the package:
// defaults, validation, the per-executor default engines, and that each
// package-level op is exactly its Engine method on the engine it picks.

func TestMaximalMatchingDefaults(t *testing.T) {
	l := RandomList(1000, 1)
	res, err := MaximalMatching(l, Options{Processors: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(l, res.In); err != nil {
		t.Fatal(err)
	}
	if res.Detail.Algorithm != "match4" {
		t.Errorf("default algorithm = %q", res.Detail.Algorithm)
	}
	if res.Stats.Processors != 64 || res.Stats.Time == 0 {
		t.Errorf("stats = %+v", res.Stats)
	}
	if res.Size != res.Detail.Size {
		t.Error("size mismatch")
	}
}

func TestMaximalMatchingAllAlgorithms(t *testing.T) {
	l := RandomList(512, 2)
	for _, a := range []Algorithm{Match1, Match2, Match3, Match4, Sequential, Randomized} {
		res, err := MaximalMatching(l, Options{Algorithm: a, Processors: 8})
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if err := Verify(l, res.In); err != nil {
			t.Errorf("%s: %v", a, err)
		}
		if string(a) != res.Detail.Algorithm {
			t.Errorf("%s: detail algorithm %q", a, res.Detail.Algorithm)
		}
	}
}

func TestMaximalMatchingUnknownAlgorithm(t *testing.T) {
	l := SequentialList(4)
	_, err := MaximalMatching(l, Options{Algorithm: "quantum"})
	if err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Errorf("err = %v", err)
	}
}

func TestMaximalMatchingRejectsInvalidList(t *testing.T) {
	bad := list.New([]int{0, list.Nil}, 0) // self-loop
	if _, err := MaximalMatching(bad, Options{}); err == nil {
		t.Error("invalid list accepted")
	}
}

func TestMaximalMatchingVariants(t *testing.T) {
	l := RandomList(256, 3)
	for _, v := range []Variant{VariantMSB, VariantLSB} {
		res, err := MaximalMatching(l, Options{Variant: v, Processors: 4})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if err := Verify(l, res.In); err != nil {
			t.Errorf("%v: %v", v, err)
		}
	}
}

func TestMaximalMatchingTableRoute(t *testing.T) {
	l := RandomList(4096, 4)
	res, err := MaximalMatching(l, Options{UseTable: true, I: 4, Processors: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detail.TableSize == 0 {
		t.Error("table route reported no table")
	}
	if err := Verify(l, res.In); err != nil {
		t.Error(err)
	}
}

func TestPartitionFacade(t *testing.T) {
	l := RandomList(2048, 5)
	lab, rng, err := Partition(l, 2, Options{Processors: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := partition.Verify(l, lab); err != nil {
		t.Fatal(err)
	}
	if rng != partition.RangeAfter(2048, 2) {
		t.Errorf("range = %d", rng)
	}
	if _, _, err := Partition(l, 0, Options{}); err == nil {
		t.Error("i=0 accepted")
	}
}

func TestThreeColorFacade(t *testing.T) {
	l := RandomList(999, 6)
	col, stats, err := ThreeColor(l, Options{Processors: 8})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Time == 0 {
		t.Error("no stats recorded")
	}
	for v, s := range l.Next {
		if s != list.Nil && col[v] == col[s] {
			t.Fatal("improper colouring")
		}
		if col[v] < 0 || col[v] > 2 {
			t.Fatal("colour out of range")
		}
	}
}

func TestMISFacade(t *testing.T) {
	l := RandomList(777, 7)
	mis, stats, err := MIS(l, Options{Processors: 8})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Time == 0 {
		t.Error("no stats")
	}
	pred := l.Pred()
	for v, s := range l.Next {
		if mis[v] && s != list.Nil && mis[s] {
			t.Fatal("adjacent MIS members")
		}
		if !mis[v] {
			pIn := pred[v] != list.Nil && mis[pred[v]]
			sIn := s != list.Nil && mis[s]
			if !pIn && !sIn {
				t.Fatal("not maximal")
			}
		}
	}
}

func TestRankFacade(t *testing.T) {
	l := RandomList(600, 8)
	rk, _, err := Rank(l, Options{Processors: 8})
	if err != nil {
		t.Fatal(err)
	}
	pos := l.Position()
	for v := range rk {
		if rk[v] != pos[v] {
			t.Fatalf("rank[%d] = %d, want %d", v, rk[v], pos[v])
		}
	}
}

func TestPrefixFacade(t *testing.T) {
	l := RandomList(100, 9)
	vals := make([]int, 100)
	for i := range vals {
		vals[i] = i
	}
	out, _, err := Prefix(l, vals, Options{Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	acc := 0
	for v := l.Head; v != list.Nil; v = l.Next[v] {
		acc += vals[v]
		if out[v] != acc {
			t.Fatalf("prefix[%d] = %d, want %d", v, out[v], acc)
		}
	}
	if _, _, err := Prefix(l, vals[:50], Options{}); err == nil {
		t.Error("mismatched values accepted")
	}
}

func TestOptionsExecPooled(t *testing.T) {
	l := RandomList(4000, 10)
	res, err := MaximalMatching(l, Options{Processors: 32, Exec: ExecPooled})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(l, res.In); err != nil {
		t.Error(err)
	}
}

func TestZeroProcessorsDefaultsToOne(t *testing.T) {
	l := SequentialList(16)
	res, err := MaximalMatching(l, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Processors != 1 {
		t.Errorf("processors = %d", res.Stats.Processors)
	}
}

func TestRankSchemes(t *testing.T) {
	l := RandomList(3000, 12)
	pos := l.Position()
	for _, s := range []RankScheme{RankContraction, RankWyllie, RankLoadBalanced, RankRandomMate, ""} {
		rk, stats, err := Rank(l, Options{Processors: 32, Rank: s})
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if stats.Time == 0 {
			t.Errorf("%q: no stats", s)
		}
		for v := range rk {
			if rk[v] != pos[v] {
				t.Fatalf("%q: rank mismatch at %d", s, v)
			}
		}
	}
	if _, _, err := Rank(l, Options{Rank: "sorcery"}); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestFacadesRejectInvalidLists(t *testing.T) {
	bad := list.New([]int{0, list.Nil}, 0)
	if _, _, err := ThreeColor(bad, Options{}); err == nil {
		t.Error("ThreeColor accepted invalid list")
	}
	if _, _, err := MIS(bad, Options{}); err == nil {
		t.Error("MIS accepted invalid list")
	}
	if _, _, err := Rank(bad, Options{}); err == nil {
		t.Error("Rank accepted invalid list")
	}
	if _, _, err := Prefix(bad, []int{1, 2}, Options{}); err == nil {
		t.Error("Prefix accepted invalid list")
	}
	if _, _, err := Partition(bad, 1, Options{}); err == nil {
		t.Error("Partition accepted invalid list")
	}
}

// These tests pin the Options-validation contract: malformed inputs
// come back as typed errors (errors.Is-testable), never panics.

func TestNilListIsTypedError(t *testing.T) {
	if _, err := MaximalMatching(nil, Options{}); !errors.Is(err, ErrNilList) {
		t.Errorf("MaximalMatching(nil): err = %v, want ErrNilList", err)
	}
	if _, _, err := Rank(nil, Options{}); !errors.Is(err, ErrNilList) {
		t.Errorf("Rank(nil): err = %v, want ErrNilList", err)
	}
	if _, _, err := ThreeColor(nil, Options{}); !errors.Is(err, ErrNilList) {
		t.Errorf("ThreeColor(nil): err = %v, want ErrNilList", err)
	}
	if _, _, err := MIS(nil, Options{}); !errors.Is(err, ErrNilList) {
		t.Errorf("MIS(nil): err = %v, want ErrNilList", err)
	}
	if _, _, err := Prefix(nil, nil, Options{}); !errors.Is(err, ErrNilList) {
		t.Errorf("Prefix(nil): err = %v, want ErrNilList", err)
	}
	if _, _, err := Partition(nil, 1, Options{}); !errors.Is(err, ErrNilList) {
		t.Errorf("Partition(nil): err = %v, want ErrNilList", err)
	}
	if _, err := ScheduleMatching(nil, nil, 1, Options{}); !errors.Is(err, ErrNilList) {
		t.Errorf("ScheduleMatching(nil): err = %v, want ErrNilList", err)
	}
}

func TestNegativeProcessorsIsTypedError(t *testing.T) {
	l := SequentialList(8)
	for _, p := range []int{-1, -64} {
		if _, err := MaximalMatching(l, Options{Processors: p}); !errors.Is(err, ErrBadProcessors) {
			t.Errorf("p=%d: err = %v, want ErrBadProcessors", p, err)
		}
	}
	// Zero still means "default to one" — the documented behaviour.
	res, err := MaximalMatching(l, Options{Processors: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Processors != 1 {
		t.Errorf("p=0 ran with %d processors, want 1", res.Stats.Processors)
	}
}

func TestUnknownAlgorithmIsTypedError(t *testing.T) {
	l := SequentialList(8)
	_, err := MaximalMatching(l, Options{Algorithm: "quantum"})
	if !errors.Is(err, ErrUnknownAlgorithm) {
		t.Errorf("err = %v, want ErrUnknownAlgorithm", err)
	}
}

func TestUnknownRankSchemeIsTypedError(t *testing.T) {
	l := SequentialList(8)
	_, _, err := Rank(l, Options{Rank: "sorcery"})
	if !errors.Is(err, ErrUnknownRankScheme) {
		t.Errorf("err = %v, want ErrUnknownRankScheme", err)
	}
}

func TestValidationErrorsDoNotPoisonTheSharedEngine(t *testing.T) {
	l := RandomList(256, 1)
	if _, err := MaximalMatching(nil, Options{}); err == nil {
		t.Fatal("nil list accepted")
	}
	res, err := MaximalMatching(l, Options{Processors: 8})
	if err != nil {
		t.Fatalf("request after validation failure: %v", err)
	}
	if err := Verify(l, res.In); err != nil {
		t.Error(err)
	}
}

// TestUnknownExecIsTypedError: an Options.Exec outside the executor set
// fails with ErrUnknownExec instead of silently running some other
// executor, and leaves no default engine behind for the bad value.
func TestUnknownExecIsTypedError(t *testing.T) {
	l := RandomList(512, 11)
	for _, ex := range []Exec{Exec(-1), ExecNative + 1, Exec(9)} {
		if _, err := MaximalMatching(l, Options{Exec: ex}); !errors.Is(err, ErrUnknownExec) {
			t.Errorf("MaximalMatching exec=%v: err = %v, want ErrUnknownExec", ex, err)
		}
		if _, _, err := Rank(l, Options{Exec: ex, Tracer: &Tracer{}}); !errors.Is(err, ErrUnknownExec) {
			t.Errorf("traced Rank exec=%v: err = %v, want ErrUnknownExec", ex, err)
		}
		defaultMu.Lock()
		_, cached := defaultEngines[ex]
		defaultMu.Unlock()
		if cached {
			t.Errorf("exec=%v: a default engine was cached for an unknown executor", ex)
		}
	}
}

// TestPackageCallsMatchEngineMethods pins "each op written once": for
// all seven ops on every executor, the package-level call and the same
// method on a dedicated NewEngine return bit-identical outputs and
// Stats.
func TestPackageCallsMatchEngineMethods(t *testing.T) {
	l := RandomList(3000, 12)
	vals := make([]int, l.Len())
	for i := range vals {
		vals[i] = i%7 - 3
	}
	lab, K, err := Partition(l, 2, Options{Processors: 16})
	if err != nil {
		t.Fatal(err)
	}
	type ops struct {
		match     func(*List, Options) (*Result, error)
		partition func(*List, int, Options) ([]int, int, error)
		color     func(*List, Options) ([]int, Stats, error)
		mis       func(*List, Options) ([]bool, Stats, error)
		rank      func(*List, Options) ([]int, Stats, error)
		prefix    func(*List, []int, Options) ([]int, Stats, error)
		schedule  func(*List, []int, int, Options) (*Result, error)
	}
	names := []string{"matching", "partition", "threecolor", "mis", "rank", "prefix", "schedule"}
	// outputs runs the seven ops; each row holds one op's return values,
	// its error last.
	outputs := func(f ops, o Options) [][]any {
		row := func(v ...any) []any { return v }
		return [][]any{
			row(f.match(l, o)), row(f.partition(l, 3, o)), row(f.color(l, o)),
			row(f.mis(l, o)), row(f.rank(l, o)), row(f.prefix(l, vals, o)),
			row(f.schedule(l, lab, K, o)),
		}
	}
	pkg := ops{MaximalMatching, Partition, ThreeColor, MIS, Rank, Prefix, ScheduleMatching}
	for _, ex := range []Exec{ExecSequential, ExecPooled, ExecNative} {
		o := Options{Processors: 16, Exec: ex}
		eng := NewEngine(EngineConfig{Exec: ex})
		got := outputs(ops{eng.MaximalMatching, eng.Partition, eng.ThreeColor,
			eng.MIS, eng.Rank, eng.Prefix, eng.ScheduleMatching}, o)
		eng.Close()
		want := outputs(pkg, o)
		for i, w := range want {
			if err := w[len(w)-1]; err != nil {
				t.Fatalf("%v/%s: %v", ex, names[i], err)
			}
			if !reflect.DeepEqual(got[i], w) {
				t.Errorf("%v/%s: engine method differs from the package-level call", ex, names[i])
			}
		}
	}
}
