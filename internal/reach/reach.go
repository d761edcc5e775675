// Package reach precomputes reachability over the directed door graph: a
// Tarjan condensation into strongly connected components plus, per SCC, a
// spatial summary of everything reachable downstream in the condensation
// DAG — the MBR union of every partition enterable through a reachable
// door, the floor span of that region, and (under a memory budget) a
// partition bitmap. The design follows GeoReach's spatial reachability
// summaries: a query asks "crossing door d, can I still reach partition v /
// anything within `limit` of p?" and gets an O(1) answer instead of
// discovering unreachability by exhausting a Dijkstra frontier.
//
// Every answer is conservative in the pruning direction: "unreachable" is
// exact for the edge set the summary was built over, and builders may only
// over-approximate that edge set (FromSpace keeps topological edges whose
// geometric weight is +Inf), so a prune can never discard a door that some
// engine could actually traverse. Closing doors only removes edges, which
// is why a summary built over the full graph remains sound under any
// closed-door filter — and why the temporal engine can afford to rebuild a
// fresh condensation per schedule change instead of filtering per edge
// visit.
//
// The SCC ids are assigned in Tarjan pop order, i.e. reverse topological
// order of the condensation: every cross-SCC edge points from a higher id
// to a strictly lower one. Downstream summaries are therefore completed by
// a single ascending-id pass, after a chunked parallel pass (exec.Chunks)
// fills each SCC's direct summary; chunk boundaries only ever split between
// SCCs, so the output is byte-identical for any GOMAXPROCS.
package reach

import (
	"sync/atomic"

	"indoorsq/internal/doorgraph"
	"indoorsq/internal/exec"
	"indoorsq/internal/geom"
	"indoorsq/internal/indoor"
)

// Metrics aggregates process-wide reachability counters. SCCs and
// SummaryBytes describe the most recently built Reach; PruneHits counts
// doors (or whole queries) skipped because a summary proved them useless,
// PruneSkips the checks that could not prune. The obs registry exposes all
// four as gauges.
var Metrics struct {
	SCCs         atomic.Int64
	SummaryBytes atomic.Int64
	PruneHits    atomic.Int64
	PruneSkips   atomic.Int64
}

// partsBudget caps the partition-bitmap footprint (numSCC x ceil(P/64)
// words). Above it the bitmap is dropped and DoorReachesPart degrades to
// "maybe" (always true), keeping the MBR summaries — which stay O(SCCs) —
// as the only prune. Variable, so tests can force the fallback.
var partsBudget int64 = 64 << 20

// adjacency is the build-time edge set in CSR form (targets only; the
// condensation never needs weights).
type adjacency struct {
	off []int32 // len n+1
	to  []int32
}

// Reach is an immutable reachability summary of one door graph (optionally
// under a door filter). The zero value is not usable; a nil *Reach is a
// valid "no pruning" summary for the query-side helpers that accept one.
type Reach struct {
	n      int // doors
	np     int // partitions
	scc    []int32
	numSCC int

	// Per-SCC downstream summaries: the MBR union, floor span and (when
	// parts != nil) partition bitmap of every partition enterable through
	// any door reachable from the SCC, the SCC's own doors included.
	// hasGeom is false when nothing is enterable downstream at all.
	mbr     []geom.Rect
	hasGeom []bool
	floorLo []int16
	floorHi []int16
	parts   []uint64 // numSCC rows of pw words each; nil over budget
	pw      int

	size int64
}

// FromSpace builds the summary over the topological door graph of a space:
// d -> nd when one can enter some partition v through d and leave v through
// nd. This is a superset of the geometric door graph (edges whose walking
// distance is +Inf are kept), so the summary is sound for every engine.
// A non-nil open filter excludes closed doors entirely — their SCC is -1
// and no edge touches them — which is the temporal per-hour rebuild path.
func FromSpace(sp *indoor.Space, open func(indoor.DoorID) bool) *Reach {
	n := sp.NumDoors()
	var excl []bool
	if open != nil {
		excl = make([]bool, n)
		for d := 0; d < n; d++ {
			excl[d] = !open(indoor.DoorID(d))
		}
	}
	closed := func(d int32) bool { return excl != nil && excl[d] }

	cnt := make([]int32, n+1)
	exec.Chunks(n, func(lo, hi int) {
		for di := lo; di < hi; di++ {
			if closed(int32(di)) {
				continue
			}
			var c int32
			for _, v := range sp.Door(indoor.DoorID(di)).Enterable {
				for _, nd := range sp.Partition(v).Leave {
					if int(nd) != di && !closed(int32(nd)) {
						c++
					}
				}
			}
			cnt[di+1] = c
		}
	})
	var total int64
	off := cnt
	for i := 0; i < n; i++ {
		total += int64(off[i+1])
		if total > 1<<31-1 {
			panic("reach: edge count overflows int32 CSR offsets")
		}
		off[i+1] = int32(total)
	}
	to := make([]int32, total)
	exec.Chunks(n, func(lo, hi int) {
		for di := lo; di < hi; di++ {
			if closed(int32(di)) {
				continue
			}
			pos := off[di]
			for _, v := range sp.Door(indoor.DoorID(di)).Enterable {
				for _, nd := range sp.Partition(v).Leave {
					if int(nd) != di && !closed(int32(nd)) {
						to[pos] = int32(nd)
						pos++
					}
				}
			}
		}
	})
	return build(sp, adjacency{off: off, to: to}, excl)
}

// FromGraph builds the summary over the exact edge set of a built door
// graph (finite-weight edges only) — the natural choice for IDINDEX and
// IP/VIP-TREE, which derive their matrices from the same graph: there,
// summary-unreachable coincides with matrix-+Inf rather than merely
// bounding it.
func FromGraph(g *doorgraph.Graph, sp *indoor.Space) *Reach {
	n := g.N
	off := make([]int32, n+1)
	for d := 0; d < n; d++ {
		row, _ := g.FwdRow(d)
		off[d+1] = off[d] + int32(len(row))
	}
	to := make([]int32, off[n])
	exec.Chunks(n, func(lo, hi int) {
		for d := lo; d < hi; d++ {
			row, _ := g.FwdRow(d)
			copy(to[off[d]:off[d+1]], row)
		}
	})
	return build(sp, adjacency{off: off, to: to}, nil)
}

// tarjan assigns SCC ids in pop order (reverse topological: cross-SCC edges
// run from higher to strictly lower ids) with an iterative DFS. Excluded
// doors keep id -1. adj must contain no edge into or out of an excluded
// door.
func tarjan(adj adjacency, excl []bool) ([]int32, int) {
	n := len(adj.off) - 1
	scc := make([]int32, n)
	for i := range scc {
		scc[i] = -1
	}
	idx := make([]int32, n) // 1-based discovery index; 0 = unvisited
	low := make([]int32, n)
	onStack := make([]bool, n)
	stack := make([]int32, 0, n)
	type frame struct {
		v  int32
		ei int32
	}
	var frames []frame
	var counter int32
	numSCC := 0
	for root := 0; root < n; root++ {
		if idx[root] != 0 || (excl != nil && excl[root]) {
			continue
		}
		counter++
		idx[root], low[root] = counter, counter
		stack = append(stack, int32(root))
		onStack[root] = true
		frames = append(frames[:0], frame{int32(root), adj.off[root]})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.ei < adj.off[v+1] {
				w := adj.to[f.ei]
				f.ei++
				if idx[w] == 0 {
					counter++
					idx[w], low[w] = counter, counter
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, adj.off[w]})
				} else if onStack[w] && idx[w] < low[v] {
					low[v] = idx[w]
				}
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := frames[len(frames)-1].v; low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] != idx[v] {
				continue
			}
			c := int32(numSCC)
			numSCC++
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc[w] = c
				if w == v {
					break
				}
			}
		}
	}
	return scc, numSCC
}

func build(sp *indoor.Space, adj adjacency, excl []bool) *Reach {
	n := len(adj.off) - 1
	np := sp.NumPartitions()
	r := &Reach{n: n, np: np}
	r.scc, r.numSCC = tarjan(adj, excl)
	numSCC := r.numSCC

	// Member doors grouped by SCC (counting sort; ascending door id within
	// each group, so per-SCC iteration order is canonical).
	sccOff := make([]int32, numSCC+1)
	for _, c := range r.scc {
		if c >= 0 {
			sccOff[c+1]++
		}
	}
	for c := 0; c < numSCC; c++ {
		sccOff[c+1] += sccOff[c]
	}
	sccDoors := make([]int32, sccOff[numSCC])
	pos := make([]int32, numSCC)
	copy(pos, sccOff[:numSCC])
	for d, c := range r.scc {
		if c >= 0 {
			sccDoors[pos[c]] = int32(d)
			pos[c]++
		}
	}

	r.mbr = make([]geom.Rect, numSCC)
	r.hasGeom = make([]bool, numSCC)
	r.floorLo = make([]int16, numSCC)
	r.floorHi = make([]int16, numSCC)
	r.pw = (np + 63) / 64
	if int64(numSCC)*int64(r.pw)*8 <= partsBudget {
		r.parts = make([]uint64, numSCC*r.pw)
	}

	// Direct summaries: everything enterable through the SCC's own doors.
	// Chunk boundaries fall between SCCs, each SCC's row is written by
	// exactly one worker in a fixed member/partition order, and MBR union
	// is running min/max — byte-identical output for any GOMAXPROCS.
	exec.Chunks(numSCC, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			var row []uint64
			if r.parts != nil {
				row = r.parts[c*r.pw : (c+1)*r.pw]
			}
			for _, di := range sccDoors[sccOff[c]:sccOff[c+1]] {
				for _, v := range sp.Door(indoor.DoorID(di)).Enterable {
					part := sp.Partition(v)
					if !r.hasGeom[c] {
						r.hasGeom[c] = true
						r.mbr[c] = part.MBR
						r.floorLo[c], r.floorHi[c] = part.Floor, part.TopFloor
					} else {
						r.mbr[c] = r.mbr[c].Union(part.MBR)
						if part.Floor < r.floorLo[c] {
							r.floorLo[c] = part.Floor
						}
						if part.TopFloor > r.floorHi[c] {
							r.floorHi[c] = part.TopFloor
						}
					}
					if row != nil {
						row[int(v)>>6] |= 1 << (uint(v) & 63)
					}
				}
			}
		}
	})

	// Downstream closure in one ascending-id pass: successors always have
	// strictly lower ids, so their summaries are final when merged. seen
	// deduplicates successor SCCs per source row without clearing.
	seen := make([]int32, numSCC)
	for i := range seen {
		seen[i] = -1
	}
	for c := 0; c < numSCC; c++ {
		for _, di := range sccDoors[sccOff[c]:sccOff[c+1]] {
			for _, w := range adj.to[adj.off[di]:adj.off[di+1]] {
				c2 := r.scc[w]
				if c2 == int32(c) || c2 < 0 || seen[c2] == int32(c) {
					continue
				}
				seen[c2] = int32(c)
				if r.hasGeom[c2] {
					if !r.hasGeom[c] {
						r.hasGeom[c] = true
						r.mbr[c] = r.mbr[c2]
						r.floorLo[c], r.floorHi[c] = r.floorLo[c2], r.floorHi[c2]
					} else {
						r.mbr[c] = r.mbr[c].Union(r.mbr[c2])
						if r.floorLo[c2] < r.floorLo[c] {
							r.floorLo[c] = r.floorLo[c2]
						}
						if r.floorHi[c2] > r.floorHi[c] {
							r.floorHi[c] = r.floorHi[c2]
						}
					}
				}
				if r.parts != nil {
					row := r.parts[c*r.pw : (c+1)*r.pw]
					src := r.parts[int(c2)*r.pw : (int(c2)+1)*r.pw]
					for wi := range row {
						row[wi] |= src[wi]
					}
				}
			}
		}
	}

	r.size = int64(n)*4 + int64(numSCC)*(32+1+2+2) + int64(len(r.parts))*8
	Metrics.SCCs.Store(int64(numSCC))
	Metrics.SummaryBytes.Store(r.size)
	return r
}

// NumDoors returns the door count of the summarized graph.
func (r *Reach) NumDoors() int { return r.n }

// NumSCCs returns the number of strongly connected components (excluded
// doors belong to none). 1 with no filter means the graph is strongly
// connected and no reach-based prune can ever fire — callers use that as a
// per-query short-circuit so fully reachable venues pay nothing per edge.
func (r *Reach) NumSCCs() int { return r.numSCC }

// SCCOf returns door d's SCC id, or -1 when the build's door filter
// excluded d.
func (r *Reach) SCCOf(d indoor.DoorID) int32 { return r.scc[d] }

// HasParts reports whether the partition bitmap fit the memory budget.
// Without it DoorReachesPart conservatively answers true.
func (r *Reach) HasParts() bool { return r.parts != nil }

// SizeBytes returns the retained footprint of the summary.
func (r *Reach) SizeBytes() int64 { return r.size }

func (r *Reach) partBit(c int32, v indoor.PartitionID) bool {
	return r.parts[int(c)*r.pw+(int(v)>>6)]&(1<<(uint(v)&63)) != 0
}

// DoorReachesPart reports whether a walker who just crossed door d can go
// on to enter partition v (d's own enterable partitions included). False is
// exact for the summarized edge set; true may be conservative when the
// bitmap was dropped for budget. Excluded doors reach nothing.
func (r *Reach) DoorReachesPart(d indoor.DoorID, v indoor.PartitionID) bool {
	c := r.scc[d]
	if c < 0 {
		return false
	}
	if r.parts == nil {
		return true
	}
	return r.partBit(c, v)
}

// DownstreamMBR returns the MBR union of everything enterable after
// crossing door d; ok is false when nothing is (or d is excluded).
func (r *Reach) DownstreamMBR(d indoor.DoorID) (geom.Rect, bool) {
	c := r.scc[d]
	if c < 0 || !r.hasGeom[c] {
		return geom.Rect{}, false
	}
	return r.mbr[c], true
}

// MBRPrune reports whether door d is useless for a query at p whose
// remaining results must lie within walking distance `limit`: true when
// everything enterable after crossing d sits on p's own floor (so the
// planar Euclidean distance lower-bounds the walking distance, the same
// conservatism as the engines' per-partition Euclidean check) yet its MBR
// is strictly farther than limit. Strict >, so a boundary tie never drops
// a result that distance-tie rules could still admit.
func (r *Reach) MBRPrune(d indoor.DoorID, p indoor.Point, limit float64) bool {
	c := r.scc[d]
	if c < 0 || !r.hasGeom[c] {
		return true
	}
	if r.floorLo[c] != p.Floor || r.floorHi[c] != p.Floor {
		return false
	}
	return r.mbr[c].MinDist(p.XY()) > limit
}

// From is the reachable set of a query's seed doors (the usable leave doors
// of the source partition): the union of their SCCs' downstream summaries.
// Built once per query; the per-target checks are then O(seed SCCs) bit
// tests. The zero From (and any From built from a nil *Reach or a summary
// without the partition bitmap) answers true to everything — conservative,
// never wrong in the pruning direction.
type From struct {
	r       *Reach
	sccs    []int32
	decided bool
}

// FromDoors collects the distinct SCCs of the seed doors, skipping doors
// the usable filter (when non-nil) rejects. The result is exact iff the
// summary kept its partition bitmap.
func (r *Reach) FromDoors(seeds []indoor.DoorID, usable func(indoor.DoorID) bool) From {
	f := From{r: r, decided: r != nil && r.parts != nil}
	if r == nil {
		return f
	}
	for _, d := range seeds {
		if usable != nil && !usable(d) {
			continue
		}
		c := r.scc[d]
		if c < 0 {
			continue
		}
		dup := false
		for _, e := range f.sccs {
			if e == c {
				dup = true
				break
			}
		}
		if !dup {
			f.sccs = append(f.sccs, c)
		}
	}
	return f
}

// CanReachPart reports whether any seed door can go on to enter partition
// v. With the bitmap present, false is exact: no door-using path from the
// seeds ever enters v (in particular, no seeds at all means nothing is
// door-reachable).
func (f From) CanReachPart(v indoor.PartitionID) bool {
	if !f.decided {
		return true
	}
	for _, c := range f.sccs {
		if f.r.partBit(c, v) {
			return true
		}
	}
	return false
}

// AnyPart reports whether any of the given partitions is reachable from the
// seed set.
func (f From) AnyPart(vs []indoor.PartitionID) bool {
	if !f.decided {
		return true
	}
	for _, v := range vs {
		if f.CanReachPart(v) {
			return true
		}
	}
	return false
}
