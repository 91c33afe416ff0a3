package plan

import (
	"reflect"
	"testing"
)

func TestWholeShape(t *testing.T) {
	p := Whole()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.K != 1 || len(p.Steps) != 1 || p.Steps[0].Kind != KindWhole {
		t.Fatalf("unexpected trivial plan: %+v", p)
	}
	if got := p.Stages(); !reflect.DeepEqual(got, [][]int{{0}}) {
		t.Fatalf("Stages() = %v", got)
	}
}

func TestShardedShape(t *testing.T) {
	for _, k := range []int{1, 2, 3, 8} {
		p := Sharded(k)
		if err := p.Validate(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(p.Steps) != 2*k+2 {
			t.Fatalf("k=%d: %d steps, want %d", k, len(p.Steps), 2*k+2)
		}
		stages := p.Stages()
		if len(stages) != 4 {
			t.Fatalf("k=%d: %d stages, want 4", k, len(stages))
		}
		if len(stages[0]) != k || len(stages[1]) != 1 || len(stages[2]) != 1 || len(stages[3]) != k {
			t.Fatalf("k=%d: stage widths %d/%d/%d/%d", k, len(stages[0]), len(stages[1]), len(stages[2]), len(stages[3]))
		}
		if p.Steps[stages[1][0]].Kind != KindBoundaryExchange || p.Steps[stages[1][0]].Shard != Coordinator {
			t.Fatalf("k=%d: stage 1 is %v", k, p.Steps[stages[1][0]])
		}
		if p.Steps[stages[2][0]].Kind != KindReducedSolve {
			t.Fatalf("k=%d: stage 2 is %v", k, p.Steps[stages[2][0]])
		}
	}
}

func TestShardedPanicsBelowOne(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sharded(0) did not panic")
		}
	}()
	Sharded(0)
}

func TestValidateCatchesCorruption(t *testing.T) {
	cases := []struct {
		name string
		warp func(*Plan)
	}{
		{"forward dep", func(p *Plan) { p.Steps[0].Deps = []int{1} }},
		{"self dep", func(p *Plan) { p.Steps[2].Deps = []int{2} }},
		{"bad id", func(p *Plan) { p.Steps[1].ID = 7 }},
		{"shard out of range", func(p *Plan) { p.Steps[0].Shard = 9 }},
		{"bad K", func(p *Plan) { p.K = 0 }},
	}
	for _, tc := range cases {
		p := Sharded(3)
		tc.warp(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a corrupt plan", tc.name)
		}
	}
}

func TestExchangeBytes(t *testing.T) {
	if got := ExchangeBytes(0); got != 0 {
		t.Fatalf("ExchangeBytes(0) = %d", got)
	}
	if got := ExchangeBytes(10); got != 10*(SegRecordBytes+OffsetBytes) {
		t.Fatalf("ExchangeBytes(10) = %d", got)
	}
}
