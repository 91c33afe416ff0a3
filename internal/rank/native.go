package rank

import (
	"math/bits"

	"parlist/internal/list"
	"parlist/internal/pram"
	"parlist/internal/ws"
)

// This file holds the Native executor's list-ranking kernel: the
// chunked splitter-walk scheme (the classic Helman–JáJá decomposition
// the distributed-list-ranking literature builds on) instead of the
// simulated contraction or Wyllie jumping. The list is cut at the
// nodes whose addresses are multiples of a power-of-two stride (plus
// the head) into independent sublists; phase 1 walks all sublists in
// parallel (each party owns a chunk of splitters and, from
// list.LaneWalkMin nodes, advances list.Lanes of them in lockstep so
// their cache misses overlap; every node belongs to exactly one
// sublist, so all writes are race-free), phase 2 is a sequential
// base-walk over the splitter chain, and phase 3 expands per-node
// results chunk-parallel. Two barriers total, no step charging, no
// shadow copies.
//
// Ranks are unique and prefix sums are plain integer additions over
// the same operand sequence, so the outputs are bit-identical to the
// simulated schemes' — the equivalence suites assert this.

// NativeWalker is the reusable kernel state: the team closure is bound
// once at construction and per-call parameters travel through fields,
// keeping the steady-state request path allocation-free. A walker is
// single-use-at-a-time, like the machine it wraps.
type NativeWalker struct {
	m     *pram.Machine
	teamF func(*pram.TeamCtx)

	// Per-call state, set by walk before dispatch.
	next      []int
	head, n   int
	vals, out []int // vals nil = rank mode
	// Splitters are the nodes v with v&mask == 0 (id v>>shift, sm of
	// them) plus the head when it is not one (id sm).
	shift, mask, sm int
	lanes           int   // sublists each party walks in lockstep
	node            []int // per node v: [2v] sublist id, [2v+1] within-sublist rank / inclusive prefix
	nextSplit       []int // per splitter: id of the next splitter, or -1
	subTotal        []int // per splitter: sublist node count / value sum
	offset          []int // per splitter: rank / prefix at the sublist's start
}

// NewNativeWalker returns a reusable native ranking kernel on m.
func NewNativeWalker(m *pram.Machine) *NativeWalker {
	w := &NativeWalker{m: m}
	w.teamF = w.team
	return w
}

func (w *NativeWalker) splitNode(j int) int {
	if j == w.sm {
		return w.head
	}
	return j << w.shift
}

// walkSublists is phase 1 for splitters [lo, hi): it walks each
// sublist from its splitter to just before the next splitter, up to
// w.lanes of them in lockstep, recording every node's sublist and
// within-sublist rank / inclusive prefix and every sublist's total and
// successor splitter. The lanes' next-pointer loads are independent,
// so their cache misses overlap instead of queueing one behind the
// other. A valid list's head has no predecessor, so only the mask
// marks a splitter mid-walk.
func (w *NativeWalker) walkSublists(lo, hi int) {
	next, vals, node := w.next, w.vals, w.node
	shift, mask := w.shift, w.mask
	var cur, sub, acc [list.Lanes]int
	start := func(i, j int) {
		u := w.splitNode(j)
		a := 0 // rank mode: the splitter's within-sublist rank
		if vals != nil {
			a = vals[u]
		}
		node[2*u], node[2*u+1] = j, a
		cur[i], sub[i], acc[i] = u, j, a
	}
	k, j := 0, lo // active lanes; next splitter to start
	for ; k < w.lanes && j < hi; k, j = k+1, j+1 {
		start(k, j)
	}
	for k > 0 {
		for i := 0; i < k; {
			v := next[cur[i]]
			if v&mask != 0 && v != list.Nil {
				a := acc[i] + 1
				if vals != nil {
					a = acc[i] + vals[v]
				}
				node[2*v], node[2*v+1] = sub[i], a
				cur[i], acc[i] = v, a
				i++
				continue
			}
			// The sublist ends before splitter v (or at the tail).
			sj := sub[i]
			w.nextSplit[sj] = -1
			if v != list.Nil {
				w.nextSplit[sj] = v >> shift
			}
			w.subTotal[sj] = acc[i]
			if vals == nil {
				w.subTotal[sj]++
			}
			if j < hi {
				start(i, j)
				j++
				i++
			} else {
				k--
				cur[i], sub[i], acc[i] = cur[k], sub[k], acc[k]
			}
		}
	}
}

// team is the SPMD body every party executes.
func (w *NativeWalker) team(ctx *pram.TeamCtx) {
	// Phase 1: each party walks its chunk of the sublists.
	lo, hi := ctx.Chunk(len(w.nextSplit))
	w.walkSublists(lo, hi)
	ctx.Barrier()

	// Phase 2: the base-walk over the reduced splitter chain — S nodes,
	// done once by the coordinator while the others wait.
	if ctx.Worker == 0 {
		off := 0
		j := w.sm
		if w.head&w.mask == 0 {
			j = w.head >> w.shift
		}
		for ; j != -1; j = w.nextSplit[j] {
			w.offset[j] = off
			off += w.subTotal[j]
		}
	}
	ctx.Barrier()

	// Phase 3: expand — every node adds its sublist's offset.
	lo, hi = ctx.Chunk(w.n)
	for v := lo; v < hi; v++ {
		w.out[v] = w.offset[w.node[2*v]] + w.node[2*v+1]
	}
}

// walk computes, for every node, offset-from-head information in one
// splitter-walk pass. In rank mode (vals == nil) out[v] is the 0-based
// distance from the head; in prefix mode out[v] is the inclusive prefix
// sum of vals along the list. The returned slice comes from the
// machine's workspace (valid until the next Reset).
func (w *NativeWalker) walk(l *list.List, vals []int) []int {
	return w.walkLanes(l, vals, l.Len() >= list.LaneWalkMin)
}

// walkLanes is walk with the lane decision explicit. Lane walks (from
// list.LaneWalkMin nodes) cut 64 sublists per party and advance
// list.Lanes of them at once, and serve one party too; smaller lists
// cut 8 per party, walk them one at a time, and take a plain serial
// walk at one party or below 64 nodes.
func (w *NativeWalker) walkLanes(l *list.List, vals []int, lanes bool) []int {
	m := w.m
	n := l.Len()
	m.Phase("splitter-walk") // zero-cost span: native charges nothing to Stats
	wsp := m.Workspace()
	out := ws.IntsNoZero(wsp, n) // every cell written below
	if n == 0 {
		return out
	}
	next, head := l.Next, l.Head
	parties := m.NativeParties()
	if !lanes && (parties == 1 || n < 64) {
		// Serial fast path: one walk in list order.
		if vals == nil {
			r := 0
			for v := head; v != list.Nil; v = next[v] {
				out[v] = r
				r++
			}
		} else {
			acc := 0
			for v := head; v != list.Nil; v = next[v] {
				acc += vals[v]
				out[v] = acc
			}
		}
		return out
	}

	// Splitters: the multiples of a power-of-two stride (so the split
	// test is a mask, not a divide), plus the head if it is not one.
	// Addresses are uniform over list positions for the generator
	// families here, so sublists stay balanced in expectation, and
	// several sublists per party smooth out the tail.
	perParty, laneCount := 8, 1
	if lanes {
		perParty, laneCount = 64, list.Lanes
	}
	shift := max(0, bits.Len(uint(n/(perParty*parties)))-1)
	w.shift, w.mask = shift, 1<<shift-1
	w.sm = (n-1)>>shift + 1
	S := w.sm
	if head&w.mask != 0 {
		S++
	}

	w.next, w.head, w.n, w.vals, w.out = next, head, n, vals, out
	w.lanes = laneCount
	w.node = ws.IntsNoZero(wsp, 2*n)
	w.nextSplit = ws.IntsNoZero(wsp, S)
	w.subTotal = ws.IntsNoZero(wsp, S)
	w.offset = ws.IntsNoZero(wsp, S)

	m.RunTeam(w.teamF)

	w.next, w.vals, w.out = nil, nil, nil
	w.node, w.nextSplit, w.subTotal, w.offset = nil, nil, nil, nil
	return out
}

// Rank computes rank-from-head (0-based distance) with the
// splitter-walk kernel. Output is identical to Rank's and
// WyllieRank's — ranks are unique.
func (w *NativeWalker) Rank(l *list.List) []int { return w.walk(l, nil) }

// Prefix computes inclusive data-dependent prefix sums with the
// splitter-walk kernel. Output is identical to Prefix's.
func (w *NativeWalker) Prefix(l *list.List, vals []int) []int { return w.walk(l, vals) }

// NativeRank is the one-shot convenience form of NativeWalker.Rank (it
// allocates the walker; engines keep a cached one for the zero-alloc
// request path).
func NativeRank(m *pram.Machine, l *list.List) []int {
	return NewNativeWalker(m).Rank(l)
}

// NativePrefix is the one-shot convenience form of NativeWalker.Prefix.
func NativePrefix(m *pram.Machine, l *list.List, vals []int) []int {
	return NewNativeWalker(m).Prefix(l, vals)
}
