package doorgraph

import (
	"math"
	"sync/atomic"

	"indoorsq/internal/pq"
)

// Metrics aggregates process-wide Dijkstra sweep counters across every
// Scratch, plus the footprint of the most recently built graph. The obs
// registry exposes them as gauges; the counters are global because a
// Scratch is pooled and has no natural owner to report through.
var Metrics struct {
	// Sweeps counts Run invocations; every sweep runs to completion.
	Sweeps atomic.Int64
	// Settled counts doors settled (popped final) across all sweeps.
	Settled atomic.Int64
	// Doors, Edges and Bytes describe the last graph Build
	// completed: door count, directed edge count, and exact CSR footprint.
	Doors atomic.Int64
	Edges atomic.Int64
	Bytes atomic.Int64
}

// node is one door's sweep state. The fields are fused into a single record
// padded to 32 bytes — half a cache line, and a size the compiler indexes
// with one shift — so visiting an edge head touches exactly one scratch
// line where the split dist/prev/first/stamp arrays of the old layout
// touched up to four. The padding also keeps a record from ever straddling
// a line boundary.
type node struct {
	dist  float64
	prev  int32
	first int32
	stamp uint32
	_     [12]byte
}

// Scratch is a reusable single-source Dijkstra working set. Distance,
// predecessor and first-hop entries are epoch-stamped: a run bumps the
// epoch instead of clearing the records, so resetting costs O(doors touched
// by the previous run), not O(N). Accessors treat unstamped entries as
// unreached (+Inf distance, -1 predecessor).
//
// A Scratch is not safe for concurrent use; acquire one per goroutine.
type Scratch struct {
	nodes []node
	epoch uint32

	// order lists the doors the last run settled, in pop order. Its
	// capacity is N from NewScratch on, so recording it never allocates.
	order []int32

	h pq.Indexed
}

// NewScratch returns a Scratch for graphs with n doors. The frontier heap
// is pre-grown to n entries so a full sweep performs no interleaved append
// growth.
func NewScratch(n int) *Scratch {
	s := &Scratch{
		nodes: make([]node, n),
		order: make([]int32, 0, n),
	}
	s.h.Grow(n)
	return s
}

// AcquireScratch returns a pooled Scratch sized for the graph. Release it
// with ReleaseScratch when the sweep is done so other goroutines can reuse
// its buffers.
func (g *Graph) AcquireScratch() *Scratch {
	if s, ok := g.scratch.Get().(*Scratch); ok {
		return s
	}
	return NewScratch(g.N)
}

// ReleaseScratch returns a Scratch to the graph's pool.
func (g *Graph) ReleaseScratch(s *Scratch) {
	if s != nil && len(s.nodes) == g.N {
		g.scratch.Put(s)
	}
}

// reset starts a new epoch, clearing the stamps only on wraparound.
func (s *Scratch) reset() {
	s.epoch++
	if s.epoch == 0 {
		for i := range s.nodes {
			s.nodes[i].stamp = 0
		}
		s.epoch = 1
	}
	s.order = s.order[:0]
	s.h.Reset()
}

// SettleOrder returns the doors the last run settled, in the order it
// popped them, valid until the next run. Edge weights are non-negative, so
// pop priorities never decrease: the distances along the slice are
// nondecreasing. A run settles exactly the doors it reached.
func (s *Scratch) SettleOrder() []int32 { return s.order }

// DistAt returns the shortest distance of door d from the last run's
// source (+Inf when unreached).
func (s *Scratch) DistAt(d int) float64 {
	if s.nodes[d].stamp != s.epoch {
		return math.Inf(1)
	}
	return s.nodes[d].dist
}

// PrevAt returns door d's predecessor (successor for reverse runs) on the
// shortest path, or -1 when unreached (and for the source itself).
func (s *Scratch) PrevAt(d int) int32 {
	if s.nodes[d].stamp != s.epoch {
		return -1
	}
	return s.nodes[d].prev
}

// FirstAt returns the first door after the source on the shortest path to
// d (d itself for the source's direct neighbors, the source for d == src),
// or -1 when unreached.
func (s *Scratch) FirstAt(d int) int32 {
	if s.nodes[d].stamp != s.epoch {
		return -1
	}
	return s.nodes[d].first
}

// CopyDist fills dst (length >= N) with the per-door distances.
func (s *Scratch) CopyDist(dst []float64) {
	inf := math.Inf(1)
	for i := range s.nodes {
		if s.nodes[i].stamp == s.epoch {
			dst[i] = s.nodes[i].dist
		} else {
			dst[i] = inf
		}
	}
}

// CopyPrev fills dst (length >= N) with the per-door predecessors.
func (s *Scratch) CopyPrev(dst []int32) {
	for i := range s.nodes {
		if s.nodes[i].stamp == s.epoch {
			dst[i] = s.nodes[i].prev
		} else {
			dst[i] = -1
		}
	}
}

// CopyFirst fills dst (length >= N) with the per-door first hops.
func (s *Scratch) CopyFirst(dst []int32) {
	for i := range s.nodes {
		if s.nodes[i].stamp == s.epoch {
			dst[i] = s.nodes[i].first
		} else {
			dst[i] = -1
		}
	}
}

// Run executes a full single-source Dijkstra from src (see Graph.Dijkstra
// for the forward/reverse semantics), leaving the results readable through
// the accessors until the next run.
//
// The relaxation iterates one direction's CSR arrays directly: row bounds
// come from one offset array and the target/weight scans are sequential, so
// the hardware prefetcher can run ahead of the sweep. Each row is resliced
// once (with the weight view pinned to the row length) so the inner loop is
// bounds-check free. A door is stamped only when a strictly better distance
// is written — the unstamped default (+Inf, -1) is never materialized — and
// an improvement to an already-queued door is a decrease-key on the indexed
// heap, so no stale entries exist and every Pop is final.
func (s *Scratch) Run(g *Graph, src int32, reverse bool) {
	adj := &g.fwd
	if reverse {
		adj = &g.rev
	}
	off, to, ws := adj.off, adj.to, adj.w
	nodes := s.nodes
	s.reset()
	epoch := s.epoch
	nodes[src] = node{dist: 0, prev: -1, first: src, stamp: epoch}
	s.h.Push(src, 0)
	order := s.order
	for s.h.Len() > 0 {
		d, dd := s.h.Pop()
		order = append(order, d)
		isSrc := d == src
		fd := nodes[d].first
		row := to[off[d]:off[d+1]]
		wr := ws[off[d]:off[d+1]]
		wr = wr[:len(row)]
		for i, t := range row {
			nd := dd + wr[i]
			nt := &nodes[t]
			if nt.stamp == epoch {
				if nd >= nt.dist {
					continue
				}
				nt.dist = nd
				nt.prev = d
				if isSrc {
					nt.first = t
				} else {
					nt.first = fd
				}
				s.h.Decrease(t, nd)
				continue
			}
			nt.stamp = epoch
			nt.dist = nd
			nt.prev = d
			if isSrc {
				nt.first = t
			} else {
				nt.first = fd
			}
			s.h.Push(t, nd)
		}
	}
	s.order = order
	Metrics.Sweeps.Add(1)
	Metrics.Settled.Add(int64(len(order)))
}
