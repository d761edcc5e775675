// Package traverse implements the Dijkstra-style door-graph expansion shared
// by the graph-based engines (IDMODEL and CINDEX): range query and kNN query
// per Algorithms 1–2 of the paper's Appendix, and the fused shortest
// path/distance query. The two engines differ only in how they locate the
// host partition (sequential scan vs. R-tree) and how they obtain
// door-to-door distances within a partition (precomputed fd2d arrays vs.
// on-the-fly computation over inter-partition links); both are injected.
package traverse

import (
	"math"
	"sync"

	"indoorsq/internal/indoor"
	"indoorsq/internal/obs"
	"indoorsq/internal/pq"
	"indoorsq/internal/query"
	"indoorsq/internal/reach"
)

// D2DFunc returns the distance from door di to door dj through partition v,
// honouring direction (di must be enterable into v, dj leaveable from v),
// or +Inf when the move is impossible. The stats accumulator rides along so
// cache-backed implementations can report hit/miss effectiveness per query;
// st may be nil, and implementations that do no caching ignore it.
type D2DFunc func(v indoor.PartitionID, di, dj indoor.DoorID, st *query.Stats) float64

// HostFunc locates the partition hosting a point.
type HostFunc func(p indoor.Point) (indoor.PartitionID, bool)

// Graph drives door-graph query processing over a space.
type Graph struct {
	sp   *indoor.Space
	host HostFunc
	d2d  D2DFunc
	// euclidPrune enables the R-tree style Euclidean lower-bound check on
	// partitions before their object buckets are scanned (CINDEX only; the
	// paper observes it rarely helps under indoor topology, Sec. 6.2 B5).
	euclidPrune bool
	// open filters doors for temporal-variation queries (Sec. 7); nil means
	// every door is traversable.
	open func(indoor.DoorID) bool
	// filter restricts kNN candidates by object id (keyword extension);
	// nil accepts everything.
	filter func(id int32) bool
	// reach is the SCC condensation + downstream spatial summaries used to
	// prune expansion (nil disables pruning). It must be built over an edge
	// superset of this graph's traversable edges — for a door-filtered copy
	// (WithOpen), either a summary built under the same filter or one of
	// the unfiltered graph (closing doors only removes edges, so the
	// unfiltered summary stays conservative).
	reach *reach.Reach
	// states pools per-query Dijkstra working sets. The pool pointer is
	// shared by WithOpen/WithFilter copies, which traverse the same space
	// and therefore need identically-sized states.
	states *sync.Pool
}

// New returns a traversal graph. host and d2d must not be nil.
func New(sp *indoor.Space, host HostFunc, d2d D2DFunc, euclidPrune bool) *Graph {
	return &Graph{sp: sp, host: host, d2d: d2d, euclidPrune: euclidPrune, states: &sync.Pool{}}
}

// WithOpen returns a copy of g that only traverses doors for which open
// reports true — the temporal-variation extension of Sec. 7: closed doors
// are filtered from the base graph at query time, with no precomputed state
// to invalidate (which is why only the graph-based engines support it).
func (g *Graph) WithOpen(open func(indoor.DoorID) bool) *Graph {
	c := *g
	c.open = open
	return &c
}

// WithReach returns a copy of g that prunes expansion with the given
// reachability summary: SPD fails fast (or skips the sweep) when the target
// partition is provably door-unreachable, and every relaxation skips head
// doors whose reachable region cannot contribute. Answers are bit-identical
// to the unpruned graph; only visited-door counts and latency change. A nil
// summary disables pruning.
func (g *Graph) WithReach(r *reach.Reach) *Graph {
	c := *g
	c.reach = r
	return &c
}

// Reach returns the attached reachability summary (nil when disabled).
func (g *Graph) Reach() *reach.Reach { return g.reach }

// usable reports whether door d may be traversed under the current filter.
func (g *Graph) usable(d indoor.DoorID) bool {
	return g.open == nil || g.open(d)
}

// accept reports whether object id passes the current candidate filter.
func (g *Graph) accept(id int32) bool {
	return g.filter == nil || g.filter(id)
}

// WithFilter returns a copy of g whose kNN only considers objects accepted
// by the predicate — the building block of boolean keyword queries
// (Sec. 7).
func (g *Graph) WithFilter(accept func(id int32) bool) *Graph {
	c := *g
	c.filter = accept
	return &c
}

// state is the per-query Dijkstra working set. Entries are epoch-stamped so
// a pooled state resets in O(doors touched by the previous query) instead
// of O(doors); unstamped entries read as +Inf / NoDoor / unsettled.
type state struct {
	dist    []float64
	prev    []indoor.DoorID
	touched []uint32
	settled []uint32
	epoch   uint32
	h       pq.Heap[indoor.DoorID]

	// Per-query working-set counters. Reported instead of slice capacities
	// so WorkBytes reflects this query's footprint and stays identical
	// whether the state came fresh or from the pool.
	ntouched, npushed int
}

// newState acquires a pooled state (allocating on first use) and starts a
// fresh epoch. Return it with putState once the query's results have been
// copied out.
func (g *Graph) newState() *state {
	s, ok := g.states.Get().(*state)
	if !ok {
		n := g.sp.NumDoors()
		s = &state{
			dist:    make([]float64, n),
			prev:    make([]indoor.DoorID, n),
			touched: make([]uint32, n),
			settled: make([]uint32, n),
		}
		// Size the frontier heap once: its value and priority arrays grow
		// together here instead of through interleaved appends mid-query.
		s.h.Grow(n)
	}
	s.epoch++
	if s.epoch == 0 {
		for i := range s.touched {
			s.touched[i] = 0
			s.settled[i] = 0
		}
		s.epoch = 1
	}
	s.h.Reset()
	s.ntouched, s.npushed = 0, 0
	return s
}

func (g *Graph) putState(s *state) { g.states.Put(s) }

// push queues a frontier entry, counting it for the working-set estimate.
func (s *state) push(d indoor.DoorID, dist float64) {
	s.npushed++
	s.h.Push(d, dist)
}

// distAt returns d's tentative distance (+Inf when untouched this query).
func (s *state) distAt(d indoor.DoorID) float64 {
	if s.touched[d] != s.epoch {
		return math.Inf(1)
	}
	return s.dist[d]
}

// prevAt returns d's predecessor door (NoDoor when untouched).
func (s *state) prevAt(d indoor.DoorID) indoor.DoorID {
	if s.touched[d] != s.epoch {
		return indoor.NoDoor
	}
	return s.prev[d]
}

// setDist records a tentative distance, stamping the entry if needed.
func (s *state) setDist(d indoor.DoorID, dist float64, prev indoor.DoorID) {
	if s.touched[d] != s.epoch {
		s.touched[d] = s.epoch
		s.ntouched++
	}
	s.dist[d] = dist
	s.prev[d] = prev
}

func (s *state) isSettled(d indoor.DoorID) bool { return s.settled[d] == s.epoch }
func (s *state) settle(d indoor.DoorID)         { s.settled[d] = s.epoch }

func (s *state) bytes() int64 {
	return int64(s.ntouched)*(8+4+4+4) + int64(s.npushed)*16
}

// seed initializes the frontier with the leaveable doors of the source
// partition.
func (g *Graph) seed(s *state, v indoor.PartitionID, p indoor.Point) {
	for _, d := range g.sp.Partition(v).Leave {
		if !g.usable(d) {
			continue
		}
		w := g.sp.WithinPointDoor(v, p, d)
		if w < s.distAt(d) {
			s.setDist(d, w, indoor.NoDoor)
			s.push(d, w)
		}
	}
}

// relax expands settled door d at distance dd into its enterable partitions,
// optionally invoking visit for each (door, partition) pair before the
// door-to-door relaxation. A non-nil prune vetoes head doors before their
// (possibly expensive) d2d distance is computed; it must only veto doors
// that provably cannot contribute to the result.
func (g *Graph) relax(s *state, d indoor.DoorID, dd float64, st *query.Stats, prune func(nd indoor.DoorID) bool, visit func(v indoor.PartitionID, dd float64)) {
	for _, v := range g.sp.Door(d).Enterable {
		if visit != nil {
			visit(v, dd)
		}
		for _, nd := range g.sp.Partition(v).Leave {
			if s.isSettled(nd) || !g.usable(nd) {
				continue
			}
			if prune != nil && prune(nd) {
				continue
			}
			w := g.d2d(v, d, nd, st)
			if cand := dd + w; cand < s.distAt(nd) {
				s.setDist(nd, cand, d)
				s.push(nd, cand)
			}
		}
	}
}

// pruneByEuclid reports whether partition v can be skipped because every
// point of it is Euclidean-farther than radius from p (same floor only; a
// conservative check).
func (g *Graph) pruneByEuclid(v indoor.PartitionID, p indoor.Point, radius float64) bool {
	if !g.euclidPrune {
		return false
	}
	part := g.sp.Partition(v)
	if part.Floor != p.Floor || part.TopFloor != p.Floor {
		return false
	}
	return part.MBR.MinDist(p.XY()) > radius
}

// rangePrune builds the reach-based relaxation veto for a bounded search
// from p: a head door is skipped when everything enterable after crossing
// it is provably farther than limit() (the range radius, or the current
// k-th distance). Both closures are nil-safe no-ops when pruning is off or
// the graph is one SCC (fully reachable: nothing can ever be vetoed, so
// the per-edge check is not worth its cost); flush publishes the hit/skip
// counters once per query.
func (g *Graph) rangePrune(p indoor.Point, limit func() float64) (prune func(indoor.DoorID) bool, flush func()) {
	rc := g.reach
	if rc == nil || rc.NumSCCs() <= 1 {
		return nil, func() {}
	}
	var hits, skips int64
	prune = func(nd indoor.DoorID) bool {
		if rc.MBRPrune(nd, p, limit()) {
			hits++
			return true
		}
		skips++
		return false
	}
	flush = func() {
		reach.Metrics.PruneHits.Add(hits)
		reach.Metrics.PruneSkips.Add(skips)
	}
	return prune, flush
}

// Range answers RQ(p, r) over the given object store.
func (g *Graph) Range(store *query.ObjectStore, p indoor.Point, r float64, st *query.Stats) ([]int32, error) {
	endHost := st.Span(obs.StageHost)
	v0, ok := g.host(p)
	endHost()
	if !ok {
		return nil, query.ErrNoHost
	}
	res := query.NewIDSet(store.Len())
	defer res.Release()
	store.CollectScan(g.sp, v0, p, r, res)

	endExpand := st.Span(obs.StageExpand)
	defer endExpand()
	s := g.newState()
	defer g.putState(s)
	prune, flush := g.rangePrune(p, func() float64 { return r })
	defer flush()
	g.seed(s, v0, p)
	for s.h.Len() > 0 {
		d, dd := s.h.Pop()
		if s.isSettled(d) || dd > s.distAt(d) {
			continue
		}
		if dd > r {
			break
		}
		s.settle(d)
		st.Door()
		if err := st.Interrupted(); err != nil {
			return nil, err
		}
		door := d
		g.relax(s, d, dd, st, prune, func(v indoor.PartitionID, base float64) {
			if g.pruneByEuclid(v, p, r) {
				return
			}
			store.CollectDoor(g.sp, v, door, r-base, res)
		})
	}
	endExpand()
	st.Alloc(s.bytes() + int64(res.Len())*8)

	endRefine := st.Span(obs.StageRefine)
	defer endRefine()
	return res.Sorted(), nil
}

// KNN answers kNNQ(p, k) over the given object store.
func (g *Graph) KNN(store *query.ObjectStore, p indoor.Point, k int, st *query.Stats) ([]query.Neighbor, error) {
	if k <= 0 {
		return nil, nil
	}
	endHost := st.Span(obs.StageHost)
	v0, ok := g.host(p)
	endHost()
	if !ok {
		return nil, query.ErrNoHost
	}
	tk := query.NewTopK(k, store.Len())
	for _, i := range store.Bucket(v0) {
		o := store.At(i)
		if !g.accept(o.ID) {
			continue
		}
		tk.Offer(o.ID, g.sp.WithinPoints(v0, p, o.Loc))
	}

	endExpand := st.Span(obs.StageExpand)
	defer endExpand()
	s := g.newState()
	defer g.putState(s)
	prune, flush := g.rangePrune(p, tk.Bound)
	defer flush()
	g.seed(s, v0, p)
	for s.h.Len() > 0 {
		d, dd := s.h.Pop()
		if s.isSettled(d) || dd > s.distAt(d) {
			continue
		}
		if dd > tk.Bound() {
			break
		}
		s.settle(d)
		st.Door()
		if err := st.Interrupted(); err != nil {
			return nil, err
		}
		door := d
		g.relax(s, d, dd, st, prune, func(v indoor.PartitionID, base float64) {
			// Objects Euclidean-farther than the current k-th distance can
			// never enter the top-k (the bound only shrinks).
			if g.pruneByEuclid(v, p, tk.Bound()) {
				return
			}
			for _, i := range store.Bucket(v) {
				if !g.accept(store.At(i).ID) {
					continue
				}
				tk.Offer(store.At(i).ID, base+store.DistToDoor(g.sp, i, door))
			}
		})
	}
	endExpand()
	st.Alloc(s.bytes() + tk.SizeBytes())
	endRefine := st.Span(obs.StageRefine)
	defer endRefine()
	return tk.Results(), nil
}

// SPD answers the fused shortest path + distance query SPDQ(p, q).
func (g *Graph) SPD(p, q indoor.Point, st *query.Stats) (query.Path, error) {
	endHost := st.Span(obs.StageHost)
	vp, ok := g.host(p)
	if !ok {
		endHost()
		return query.Path{}, query.ErrNoHost
	}
	vq, ok := g.host(q)
	endHost()
	if !ok {
		return query.Path{}, query.ErrNoHost
	}

	best := math.Inf(1)
	bestDoor := indoor.NoDoor
	if vp == vq {
		// The in-partition geodesic sweep expands no doors, so it polls
		// cancellation through the Stop probe instead (concave partitions
		// only; convex ones answer in O(1)).
		best = g.sp.WithinPointsStop(vp, p, q, st.Stop())
	}

	var prune func(indoor.DoorID) bool
	if rc := g.reach; rc != nil && rc.NumSCCs() > 1 {
		var usable func(indoor.DoorID) bool
		if g.open != nil {
			usable = g.usable
		}
		from := rc.FromDoors(g.sp.Partition(vp).Leave, usable)
		if !from.CanReachPart(vq) {
			// No door path from vp's usable leave doors ever enters vq: the
			// door sweep below could only exhaust the reachable component
			// and find nothing, so answer from the in-partition geodesic
			// alone. Bit-identical to the sweep's outcome.
			reach.Metrics.PruneHits.Add(1)
			if err := st.Interrupted(); err != nil {
				return query.Path{}, err
			}
			if math.IsInf(best, 1) {
				return query.Path{}, query.ErrUnreachable
			}
			return query.Path{Source: p, Target: q, Doors: nil, Dist: best}, nil
		}
		var hits, skips int64
		prune = func(nd indoor.DoorID) bool {
			if !rc.DoorReachesPart(nd, vq) {
				hits++
				return true
			}
			skips++
			return false
		}
		defer func() {
			reach.Metrics.PruneHits.Add(hits)
			reach.Metrics.PruneSkips.Add(skips)
		}()
	}

	// Distances from each enterable door of vq to q within vq.
	tail := make(map[indoor.DoorID]float64, len(g.sp.Partition(vq).Enter))
	for _, d := range g.sp.Partition(vq).Enter {
		if !g.usable(d) {
			continue
		}
		tail[d] = g.sp.WithinPointDoor(vq, q, d)
	}

	endExpand := st.Span(obs.StageExpand)
	defer endExpand()
	s := g.newState()
	defer g.putState(s)
	g.seed(s, vp, p)
	for s.h.Len() > 0 {
		d, dd := s.h.Pop()
		if s.isSettled(d) || dd > s.distAt(d) {
			continue
		}
		if dd >= best {
			break
		}
		s.settle(d)
		st.Door()
		if err := st.Interrupted(); err != nil {
			return query.Path{}, err
		}
		if w, ok := tail[d]; ok {
			if cand := dd + w; cand < best {
				best = cand
				bestDoor = d
			}
		}
		g.relax(s, d, dd, st, prune, nil)
	}
	endExpand()
	st.Alloc(s.bytes() + int64(len(tail))*16)

	if err := st.Interrupted(); err != nil {
		// The in-partition sweep may have been interrupted with an empty
		// frontier left; report the cancellation, not unreachability.
		return query.Path{}, err
	}
	if math.IsInf(best, 1) {
		return query.Path{}, query.ErrUnreachable
	}
	endRefine := st.Span(obs.StageRefine)
	defer endRefine()
	var doors []indoor.DoorID
	for d := bestDoor; d != indoor.NoDoor; d = s.prevAt(d) {
		doors = append(doors, d)
	}
	// Reverse into source-to-target order.
	for i, j := 0, len(doors)-1; i < j; i, j = i+1, j-1 {
		doors[i], doors[j] = doors[j], doors[i]
	}
	return query.Path{Source: p, Target: q, Doors: doors, Dist: best}, nil
}
