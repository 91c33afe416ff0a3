package main

import (
	"context"
	"testing"

	"parlist/internal/engine"
	"parlist/internal/list"
	"parlist/internal/pram"
)

// TestOracle checks the correctness oracle on every op the workloads
// send: a native engine's result matches the pram.Sequential reference,
// and the self-test's corrupted copy of the reference is counted as
// wrong.
func TestOracle(t *testing.T) {
	var inputs []*input
	for i, shape := range mixedOps {
		req := shape
		req.List = list.RandomList(300+i, int64(i))
		if req.Op == engine.OpPrefix {
			req.Values = make([]int, req.List.Len())
			for j := range req.Values {
				req.Values[j] = j % 7
			}
		}
		inputs = append(inputs, &input{req: req, n: req.List.Len()})
	}
	if err := computeReferences(inputs); err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Processors: processors, Exec: pram.Native})
	defer eng.Close()
	for _, in := range inputs {
		got, err := eng.Run(context.Background(), in.req)
		if err != nil {
			t.Fatalf("%v: %v", in.req.Op, err)
		}
		if c := classify(in, got); c != outOK {
			t.Errorf("%v: native result classified %d, want ok", in.req.Op, c)
		}
		if err := selfTest(in); err != nil {
			t.Errorf("%v: %v", in.req.Op, err)
		}
	}
}
