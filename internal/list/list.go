// Package list provides array-stored linked lists in the paper's
// representation: the n nodes live in an array X[0..n-1] and NEXT[i]
// holds the index of the element following X[i] (Fig. 1). The node's
// array index is its "address"; matching partition functions operate on
// those addresses.
package list

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
)

// Nil marks the absence of a successor (the paper's nil pointer).
const Nil = -1

// List is a linked list of n nodes stored in an array. Next[i] is the
// address of the successor of node i, or Nil for the last node. Head is
// the address of the first node.
type List struct {
	Next []int
	Head int
}

// New wraps a successor array and head address as a List. It does not
// validate; call Validate for structural checks.
func New(next []int, head int) *List {
	return &List{Next: next, Head: head}
}

// Len returns the number of nodes.
func (l *List) Len() int { return len(l.Next) }

// Succ returns the successor address of node v (suc(v)), or Nil.
func (l *List) Succ(v int) int { return l.Next[v] }

// Tail returns the address of the last node (the one with Next = Nil).
// It scans the array; O(n).
func (l *List) Tail() int {
	for i, nx := range l.Next {
		if nx == Nil {
			return i
		}
	}
	return Nil
}

// Pred computes the predecessor array: pred[v] = u with Next[u] = v, or
// Nil for the head.
func (l *List) Pred() []int {
	pred := make([]int, len(l.Next))
	for i := range pred {
		pred[i] = Nil
	}
	for u, v := range l.Next {
		if v != Nil {
			pred[v] = u
		}
	}
	return pred
}

// Order returns the node addresses in list order, head first.
func (l *List) Order() []int {
	out := make([]int, 0, len(l.Next))
	for v := l.Head; v != Nil; v = l.Next[v] {
		out = append(out, v)
		if len(out) > len(l.Next) {
			panic("list: Order on a cyclic list")
		}
	}
	return out
}

// Position returns pos[v] = rank of node v from the head (head = 0).
func (l *List) Position() []int {
	pos := make([]int, len(l.Next))
	for i := range pos {
		pos[i] = -1
	}
	r := 0
	for v := l.Head; v != Nil; v = l.Next[v] {
		pos[v] = r
		r++
		if r > len(l.Next) {
			panic("list: Position on a cyclic list")
		}
	}
	return pos
}

// Clone returns a deep copy of the list.
func (l *List) Clone() *List {
	nx := make([]int, len(l.Next))
	copy(nx, l.Next)
	return &List{Next: nx, Head: l.Head}
}

// Validate checks that the structure is a single nil-terminated list
// covering all n nodes: indices in range, exactly one tail, in-degrees
// at most one, and all nodes reachable from Head.
func (l *List) Validate() error { return l.ValidateInto(nil) }

// Lanes is how many independent pointer chases one goroutine advances
// in lockstep in a lane walk (ValidateInto here, the native rank/prefix
// kernel in internal/rank). A hop through a large random list is one
// dependent cache miss; sixteen unrelated chases keep that many misses
// in flight at once instead of one.
const Lanes = 16

// LaneWalkMin is the list length from which the list walks switch from
// one serial chase to lane walks. Below it the successor array sits in
// the innermost caches, a hop costs a few cycles rather than a miss,
// and the lanes' bookkeeping costs more than the overlap saves. The
// value is the smallest size of the sweep recorded in EXPERIMENTS.md
// E23 at which lanes win on both walks.
const LaneWalkMin = 1 << 14

// ValidateScratchLen is the scratch length ValidateInto needs for an
// n-node list: the in-degree bitmap, or the lane walk's splitter
// records where those are longer.
func ValidateScratchLen(n int) int {
	words := (n + 63) >> 6
	if n >= LaneWalkMin {
		words = max(words, 2*((n-1)>>splitShift(n)+2))
	}
	return words
}

// splitShift is log2 of the lane walk's splitter stride: about 4096
// splitters, enough sublists that the last few in flight are short
// next to the whole walk, while their records (2 words each) stay
// cache-resident.
func splitShift(n int) int { return max(4, bits.Len(uint(n))-13) }

// ValidateInto is Validate with caller-provided scratch: scratch must
// have len ≥ ValidateScratchLen(n) (its contents are ignored), or be
// nil to allocate. The structural pass keeps an in-degree bitmap in
// it, and the reachability walk then reuses it for splitter records.
// The engine validates every request's list and passes arena scratch
// here so validation stays off the steady-state alloc count.
func (l *List) ValidateInto(scratch []int) error {
	n := len(l.Next)
	if n == 0 {
		return errors.New("list: empty")
	}
	if l.Head < 0 || l.Head >= n {
		return fmt.Errorf("list: head %d out of range [0,%d)", l.Head, n)
	}
	if scratch == nil {
		scratch = make([]int, ValidateScratchLen(n))
	}
	// Structural pass. In-degree is only ever 0 or 1 on the accept path,
	// so one bit per node suffices; the bitmap stays cache-resident
	// where an int table would miss on every random Next target.
	indeg := scratch[:(n+63)>>6]
	clear(indeg)
	tails := 0
	for u, v := range l.Next {
		switch {
		case v == Nil:
			tails++
		case v < 0 || v >= n:
			return fmt.Errorf("list: Next[%d] = %d out of range", u, v)
		case v == u:
			return fmt.Errorf("list: self-loop at %d", u)
		default:
			bit := 1 << uint(v&63)
			if indeg[v>>6]&bit != 0 {
				return fmt.Errorf("list: node %d has in-degree > 1", v)
			}
			indeg[v>>6] |= bit
		}
	}
	if tails != 1 {
		return fmt.Errorf("list: %d tails, want 1", tails)
	}
	if indeg[l.Head>>6]&(1<<uint(l.Head&63)) != 0 {
		return fmt.Errorf("list: head %d has a predecessor", l.Head)
	}
	// Every in-degree is now ≤ 1 and the head's is 0, so a walk from the
	// head never revisits a node: the head's component is a path ending
	// at the tail, and no cycle can be reachable from it. Nodes off that
	// path sit on cycles of their own, which only the count exposes.
	var seen int
	if n < LaneWalkMin {
		for v := l.Head; v != Nil; v = l.Next[v] {
			seen++
		}
	} else {
		seen = l.laneReach(scratch)
	}
	if seen != n {
		return fmt.Errorf("list: %d of %d nodes reachable from head", seen, n)
	}
	return nil
}

// laneReach counts the nodes on the head's path with a splitter walk.
// Splitters are the nodes at multiples of a power-of-two stride plus
// the head; they cut every path and every cycle that contains one into
// sublists, each running from a splitter to just before the next
// splitter (or Nil). One goroutine walks Lanes sublists in lockstep,
// recording per splitter its sublist's length and the next splitter's
// id in rec, and the head's count is then the sum of lengths along its
// splitter chain. Cycles without a splitter are never entered: a walk
// starts only at a splitter, and a path never leads into a cycle (the
// joining node would have in-degree 2). The caller has checked the
// structure, so the head has no predecessor and no walk reaches it.
func (l *List) laneReach(rec []int) int {
	next, head := l.Next, l.Head
	n := len(next)
	shift := splitShift(n)
	mask := 1<<shift - 1
	sm := (n-1)>>shift + 1 // splitters at multiples of the stride
	s := sm
	if head&mask != 0 {
		s++ // the head is splitter sm
	}
	node := func(j int) int {
		if j == sm {
			return head
		}
		return j << shift
	}

	var cur, sub, cnt [Lanes]int
	k, j := 0, 0 // active lanes; next splitter to start
	for ; k < Lanes && j < s; k, j = k+1, j+1 {
		cur[k], sub[k], cnt[k] = node(j), j, 1
	}
	for k > 0 {
		for i := 0; i < k; {
			v := next[cur[i]]
			if v&mask != 0 && v != Nil {
				cur[i] = v
				cnt[i]++
				i++
				continue
			}
			// The sublist ends before splitter v (or at the tail).
			r := 2 * sub[i]
			rec[r] = cnt[i]
			rec[r+1] = -1
			if v != Nil {
				rec[r+1] = v >> shift
			}
			if j < s {
				cur[i], sub[i], cnt[i] = node(j), j, 1
				j++
				i++
			} else {
				k--
				cur[i], sub[i], cnt[i] = cur[k], sub[k], cnt[k]
			}
		}
	}

	seen, j := 0, sm
	if head&mask == 0 {
		j = head >> shift
	}
	for ; j != -1; j = rec[2*j+1] {
		seen += rec[2*j]
	}
	return seen
}

// PointerCount returns the number of real pointers, n-1.
func (l *List) PointerCount() int { return len(l.Next) - 1 }

// IsForward reports whether the pointer out of node a is a forward
// pointer (head address greater than tail address, b > a). Panics when a
// is the list tail (it has no pointer).
func (l *List) IsForward(a int) bool {
	b := l.Next[a]
	if b == Nil {
		panic(fmt.Sprintf("list: IsForward on tail node %d", a))
	}
	return b > a
}

// FromOrder builds a list whose traversal visits the given addresses in
// order. order must be a permutation of [0,n).
func FromOrder(order []int) *List {
	n := len(order)
	next := make([]int, n)
	for i := range next {
		next[i] = Nil
	}
	for i := 0; i+1 < n; i++ {
		next[order[i]] = order[i+1]
	}
	return &List{Next: next, Head: order[0]}
}

// SequentialList returns the list 0 → 1 → ... → n-1: every pointer is a
// forward pointer.
func SequentialList(n int) *List {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return FromOrder(order)
}

// ReversedList returns the list n-1 → n-2 → ... → 0: every pointer is a
// backward pointer.
func ReversedList(n int) *List {
	order := make([]int, n)
	for i := range order {
		order[i] = n - 1 - i
	}
	return FromOrder(order)
}

// RandomList returns a list visiting a uniformly random permutation of
// the addresses, seeded deterministically.
func RandomList(n int, seed int64) *List {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(n)
	return FromOrder(order)
}

// ZigZagList returns the order 0, n-1, 1, n-2, ...: pointers alternate
// maximally-long forward and backward, the adversarial case for
// bisection-based intuition.
func ZigZagList(n int) *List {
	order := make([]int, 0, n)
	lo, hi := 0, n-1
	for lo <= hi {
		order = append(order, lo)
		lo++
		if lo <= hi {
			order = append(order, hi)
			hi--
		}
	}
	return FromOrder(order)
}

// BlockedList splits the address space into blocks of the given size,
// visits blocks in random order but addresses within a block
// consecutively — lists with locality, as produced by block-wise
// allocation.
func BlockedList(n, blockSize int, seed int64) *List {
	if blockSize < 1 {
		panic(fmt.Sprintf("list: BlockedList blockSize %d < 1", blockSize))
	}
	rng := rand.New(rand.NewSource(seed))
	nb := (n + blockSize - 1) / blockSize
	blocks := rng.Perm(nb)
	order := make([]int, 0, n)
	for _, b := range blocks {
		for i := b * blockSize; i < (b+1)*blockSize && i < n; i++ {
			order = append(order, i)
		}
	}
	return FromOrder(order)
}

// Generator names a list generator for harness sweeps.
type Generator struct {
	Name string
	Make func(n int, seed int64) *List
}

// Generators returns the standard generator set used by experiments.
func Generators() []Generator {
	return []Generator{
		{Name: "random", Make: func(n int, seed int64) *List { return RandomList(n, seed) }},
		{Name: "sequential", Make: func(n int, _ int64) *List { return SequentialList(n) }},
		{Name: "reversed", Make: func(n int, _ int64) *List { return ReversedList(n) }},
		{Name: "zigzag", Make: func(n int, _ int64) *List { return ZigZagList(n) }},
		{Name: "blocked", Make: func(n int, seed int64) *List { return BlockedList(n, 64, seed) }},
	}
}

// RenderBisection draws the Fig.-2 view: the array with its bisecting
// line and, for each pointer crossing the midline, whether it is a
// forward (>) or backward (<) crosser. Intended for small n in CLI
// demos.
func (l *List) RenderBisection() string {
	n := len(l.Next)
	var b strings.Builder
	mid := n / 2
	fmt.Fprintf(&b, "array [0..%d], bisecting line c between %d and %d\n", n-1, mid-1, mid)
	for a, v := range l.Next {
		if v == Nil {
			continue
		}
		crosses := (a < mid) != (v < mid)
		dir := "<"
		if v > a {
			dir = ">"
		}
		mark := " "
		if crosses {
			mark = "c"
		}
		fmt.Fprintf(&b, "  <%2d,%2d> %s %s\n", a, v, dir, mark)
	}
	return b.String()
}
