package list

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// referenceValidate is the serial validator ValidateInto replaced: an
// int in-degree table and one pointer chase from the head with an
// explicit cycle guard. ValidateInto must agree with it on every input,
// verdict and error string alike.
func referenceValidate(l *List) error {
	n := len(l.Next)
	if n == 0 {
		return errors.New("list: empty")
	}
	if l.Head < 0 || l.Head >= n {
		return fmt.Errorf("list: head %d out of range [0,%d)", l.Head, n)
	}
	tails := 0
	indeg := make([]int, n)
	for u, v := range l.Next {
		switch {
		case v == Nil:
			tails++
		case v < 0 || v >= n:
			return fmt.Errorf("list: Next[%d] = %d out of range", u, v)
		case v == u:
			return fmt.Errorf("list: self-loop at %d", u)
		default:
			indeg[v]++
			if indeg[v] > 1 {
				return fmt.Errorf("list: node %d has in-degree > 1", v)
			}
		}
	}
	if tails != 1 {
		return fmt.Errorf("list: %d tails, want 1", tails)
	}
	if indeg[l.Head] != 0 {
		return fmt.Errorf("list: head %d has a predecessor", l.Head)
	}
	seen := 0
	for v := l.Head; v != Nil; v = l.Next[v] {
		seen++
		if seen > n {
			return errors.New("list: cycle reachable from head")
		}
	}
	if seen != n {
		return fmt.Errorf("list: %d of %d nodes reachable from head", seen, n)
	}
	return nil
}

// checkAgainstReference runs ValidateInto on dirty scratch (its
// contents must not matter) and compares it with the reference.
func checkAgainstReference(t *testing.T, name string, l *List) {
	t.Helper()
	scratch := make([]int, ValidateScratchLen(l.Len()))
	for i := range scratch {
		scratch[i] = -1 ^ i
	}
	got, want := l.ValidateInto(scratch), referenceValidate(l)
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("%s: ValidateInto = %v, reference = %v", name, got, want)
	}
}

// withCycles builds a list whose head path visits path in order and
// whose remaining nodes form the given cycles.
func withCycles(n int, path []int, cycles ...[]int) *List {
	l := &List{Next: make([]int, n), Head: path[0]}
	for i, v := range path {
		l.Next[v] = Nil
		if i+1 < len(path) {
			l.Next[v] = path[i+1]
		}
	}
	for _, c := range cycles {
		for i, v := range c {
			l.Next[v] = c[(i+1)%len(c)]
		}
	}
	return l
}

// without returns order minus the given addresses.
func without(order []int, drop ...int) []int {
	gone := map[int]bool{}
	for _, d := range drop {
		gone[d] = true
	}
	out := make([]int, 0, len(order))
	for _, v := range order {
		if !gone[v] {
			out = append(out, v)
		}
	}
	return out
}

// moveTo returns order with address v moved to index 0 (front) or to
// the end.
func moveTo(order []int, v int, front bool) []int {
	rest := without(order, v)
	if front {
		return append([]int{v}, rest...)
	}
	return append(rest, v)
}

// TestValidateMatchesReferenceLargeN pins ValidateInto to the serial
// reference on both sides of LaneWalkMin, for valid lists and for every
// structural defect the lane walk has to see through. Splitters are the
// multiples of a power-of-two stride ≥ 16, so odd addresses are never
// splitters and address 0 always is.
func TestValidateMatchesReferenceLargeN(t *testing.T) {
	for _, n := range []int{LaneWalkMin - 1, LaneWalkMin, LaneWalkMin + 1, 1<<17 + 3} {
		perm := rand.New(rand.NewSource(int64(n))).Perm(n)
		mid := perm[n/2]
		type tcase struct {
			name string
			l    *List
			want string // substring of the expected error; "" = valid
		}
		cases := []tcase{
			{"head on splitter", FromOrder(moveTo(perm, 0, true)), ""},
			{"head off splitter", FromOrder(moveTo(perm, 1, true)), ""},
			{"tail on splitter", FromOrder(moveTo(perm, 0, false)), ""},
			{"tail off splitter", FromOrder(moveTo(perm, 3, false)), ""},
			{"cycle without splitter", withCycles(n, without(perm, 1, 3, 5, 7), []int{1, 3, 5, 7}), "reachable"},
			{"cycle through splitter", withCycles(n, without(perm, 0, 5, 9), []int{0, 5, 9}), "reachable"},
			{"long cycle through splitters", withCycles(n, perm[:n/3], perm[n/3:]), "reachable"},
			{"two cycles", withCycles(n, without(perm, 0, 1, 3, 16, 32), []int{0, 16, 32}, []int{1, 3}), "reachable"},
			{"in-degree 2", func() *List { l := FromOrder(perm); l.Next[perm[1]] = perm[n-1]; return l }(), "in-degree"},
			{"two tails", func() *List { l := FromOrder(perm); l.Next[mid] = Nil; return l }(), "2 tails"},
			{"head has predecessor", func() *List {
				l := withCycles(n, perm[n/4:], perm[:n/4])
				l.Head = perm[0]
				return l
			}(), "predecessor"},
			{"out of range", func() *List { l := FromOrder(perm); l.Next[mid] = n; return l }(), "out of range"},
			{"self-loop", func() *List { l := FromOrder(perm); l.Next[mid] = mid; return l }(), "self-loop"},
			{"bad head", &List{Next: FromOrder(perm).Next, Head: n}, "head"},
		}
		for _, g := range Generators() {
			cases = append(cases, tcase{g.Name, g.Make(n, 5), ""})
		}
		for _, tc := range cases {
			name := fmt.Sprintf("n=%d/%s", n, tc.name)
			checkAgainstReference(t, name, tc.l)
			if err := tc.l.Validate(); (err == nil) != (tc.want == "") || (err != nil && !strings.Contains(err.Error(), tc.want)) {
				t.Fatalf("%s: Validate = %v, want an error containing %q", name, err, tc.want)
			}
		}
	}
}

// FuzzValidate mutates random lists on both sides of LaneWalkMin —
// retargeting pointers, cutting the list, moving the head and swapping
// two successors (which splits off a cycle) — and requires ValidateInto
// to return the reference's verdict and error string.
func FuzzValidate(f *testing.F) {
	f.Add(int64(1), uint32(100), []byte{})
	f.Add(int64(2), uint32(LaneWalkMin), []byte{3, 10, 200})
	f.Add(int64(3), uint32(LaneWalkMin+1), []byte{3, 1, 2, 3, 4, 5})
	f.Add(int64(4), uint32(1<<17+3), []byte{0, 7, 9, 2, 1, 1})
	f.Add(int64(5), uint32(40000), []byte{1, 0, 0, 2, 8, 8})
	f.Fuzz(func(t *testing.T, seed int64, nn uint32, ops []byte) {
		n := int(nn%(1<<17+8)) + 1
		rng := rand.New(rand.NewSource(seed))
		l := FromOrder(rng.Perm(n))
		for i := 0; i+2 < len(ops) && i < 24; i += 3 {
			a := (int(ops[i+1]) * 7919 * (i + 1)) % n
			b := (int(ops[i+2])*104729 + a) % n
			switch ops[i] % 4 {
			case 0:
				l.Next[a] = b
			case 1:
				l.Next[a] = Nil
			case 2:
				l.Head = a
			case 3:
				l.Next[a], l.Next[b] = l.Next[b], l.Next[a]
			}
		}
		checkAgainstReference(t, fmt.Sprintf("n=%d", n), l)
	})
}

// BenchmarkReachWalk is the sweep behind LaneWalkMin: the head-path
// count of ValidateInto, once as a serial chase and once as a lane walk,
// on a random list at each size (EXPERIMENTS.md E23).
func BenchmarkReachWalk(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16, 1 << 20} {
		l := RandomList(n, 1)
		scratch := make([]int, n)
		b.Run(fmt.Sprintf("walk=serial/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				seen := 0
				for v := l.Head; v != Nil; v = l.Next[v] {
					seen++
				}
				if seen != n {
					b.Fatal(seen)
				}
			}
		})
		b.Run(fmt.Sprintf("walk=lanes/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if seen := l.laneReach(scratch); seen != n {
					b.Fatal(seen)
				}
			}
		})
	}
}
