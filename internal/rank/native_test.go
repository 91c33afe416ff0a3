package rank

import (
	"fmt"
	"reflect"
	"testing"

	"parlist/internal/list"
	"parlist/internal/pram"
	"parlist/internal/ws"
)

// TestWalkerLaneModesAgree runs the splitter walk with lanes forced on
// and off at sizes on both sides of list.LaneWalkMin, at one and at two
// parties, and requires both to match the list's positions (rank) and
// a direct prefix scan (prefix) on every generator.
func TestWalkerLaneModesAgree(t *testing.T) {
	for _, workers := range []int{1, 2} {
		m := pram.New(8, pram.WithExec(pram.Native), pram.WithWorkers(workers))
		w := NewNativeWalker(m)
		for _, g := range list.Generators() {
			for _, n := range []int{1, 63, 64, 1000, list.LaneWalkMin - 1, list.LaneWalkMin + 1} {
				l := g.Make(n, 11)
				vals := make([]int, n)
				for i := range vals {
					vals[i] = (i*5)%17 - 8
				}
				wantRank := l.Position()
				wantPrefix := make([]int, n)
				acc := 0
				for v := l.Head; v != list.Nil; v = l.Next[v] {
					acc += vals[v]
					wantPrefix[v] = acc
				}
				for _, lanes := range []bool{false, true} {
					name := fmt.Sprintf("workers=%d/%s/n=%d/lanes=%v", workers, g.Name, n, lanes)
					if got := w.walkLanes(l, nil, lanes); !reflect.DeepEqual(got, wantRank) {
						t.Fatalf("%s: rank diverges", name)
					}
					if got := w.walkLanes(l, vals, lanes); !reflect.DeepEqual(got, wantPrefix) {
						t.Fatalf("%s: prefix diverges", name)
					}
				}
			}
		}
		m.Close()
	}
}

// BenchmarkWalkerLanes is the kernel half of the sweep behind
// list.LaneWalkMin: the native rank kernel on a 2-party machine with
// lanes forced off and on, at each size (EXPERIMENTS.md E23).
func BenchmarkWalkerLanes(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16, 1 << 20} {
		l := list.RandomList(n, 1)
		for _, lanes := range []bool{false, true} {
			b.Run(fmt.Sprintf("lanes=%v/n=%d", lanes, n), func(b *testing.B) {
				wsp := ws.New()
				m := pram.New(8, pram.WithExec(pram.Native), pram.WithWorkers(2), pram.WithWorkspace(wsp))
				defer m.Close()
				w := NewNativeWalker(m)
				w.walkLanes(l, nil, lanes) // warm the workspace
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					wsp.Reset()
					w.walkLanes(l, nil, lanes)
				}
			})
		}
	}
}
