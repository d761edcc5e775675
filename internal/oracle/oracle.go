// Package oracle implements a deliberately naive reference engine for
// differential testing: exhaustive Dijkstra over the raw door graph with
// O(D^2) linear minimum selection and no early exit, plus linear scans
// over the full object set for range and kNN. It builds no index, keeps
// no cache, and prunes nothing — per query it costs O(D^2 + D*L*W + N)
// where D is the door count, L the maximum leave-set size, W one
// intra-partition distance computation (a visibility sweep in concave
// partitions), and N the object count.
//
// Because the oracle shares only the Space distance primitives with the
// five real engines (none of their traversal, caching, or index code),
// agreement between an engine and the oracle is strong evidence the
// engine's shortcuts are sound. It implements query.Engine, so the
// differential harness drives it exactly like the engines, including
// through query.Range/KNN/SPD.
package oracle

import (
	"math"
	"sort"

	"indoorsq/internal/indoor"
	"indoorsq/internal/query"
)

// Engine is the brute-force reference engine.
type Engine struct {
	sp   *indoor.Space
	objs []query.Object
}

// New returns an oracle over sp.
func New(sp *indoor.Space) *Engine { return &Engine{sp: sp} }

// Name implements query.Engine.
func (e *Engine) Name() string { return "Oracle" }

// SetObjects implements query.Engine.
func (e *Engine) SetObjects(objs []query.Object) {
	e.objs = append([]query.Object(nil), objs...)
}

// SizeBytes implements query.Engine. The oracle holds no index beyond
// its object copy.
func (e *Engine) SizeBytes() int64 { return int64(len(e.objs)) * 24 }

// dijkstra runs the exhaustive expansion to every door from the given
// initial distances, with O(D^2) selection and no early termination.
// dist and prev are fully settled on return.
func (e *Engine) dijkstra(dist []float64, prev []indoor.DoorID) {
	settled := make([]bool, len(dist))
	for {
		u := -1
		for i := range dist {
			if !settled[i] && !math.IsInf(dist[i], 1) && (u < 0 || dist[i] < dist[u]) {
				u = i
			}
		}
		if u < 0 {
			return
		}
		settled[u] = true
		du := dist[u]
		d := indoor.DoorID(u)
		for _, v := range e.sp.Door(d).Enterable {
			for _, nd := range e.sp.Partition(v).Leave {
				if settled[nd] {
					continue
				}
				w := e.sp.WithinDoors(v, d, nd)
				if cand := du + w; cand < dist[nd] {
					dist[nd] = cand
					prev[nd] = d
				}
			}
		}
	}
}

// doorDists returns the shortest distance from point p in partition vp
// to every door (leaving vp through its leave set), plus predecessor
// doors for path reconstruction.
func (e *Engine) doorDists(vp indoor.PartitionID, p indoor.Point) ([]float64, []indoor.DoorID) {
	n := e.sp.NumDoors()
	dist := make([]float64, n)
	prev := make([]indoor.DoorID, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = indoor.NoDoor
	}
	for _, d := range e.sp.Partition(vp).Leave {
		if w := e.sp.WithinPointDoor(vp, p, d); w < dist[d] {
			dist[d] = w
		}
	}
	e.dijkstra(dist, prev)
	return dist, prev
}

// pointDist finishes a door-distance vector into the indoor distance to
// point q hosted by vq: the minimum over vq's enterable doors, or the
// direct intra-partition geodesic when p and q share a partition.
func (e *Engine) pointDist(dist []float64, vp indoor.PartitionID, p indoor.Point, vq indoor.PartitionID, q indoor.Point) (float64, indoor.DoorID) {
	best := math.Inf(1)
	bestDoor := indoor.NoDoor
	if vp == vq {
		best = e.sp.WithinPoints(vp, p, q)
	}
	for _, d := range e.sp.Partition(vq).Enter {
		if c := dist[d] + e.sp.WithinPointDoor(vq, q, d); c < best {
			best, bestDoor = c, d
		}
	}
	return best, bestDoor
}

// Range implements query.Engine by scanning every object.
func (e *Engine) Range(p indoor.Point, r float64, st *query.Stats) ([]int32, error) {
	vp, ok := e.sp.HostPartition(p)
	if !ok {
		return nil, query.ErrNoHost
	}
	dist, _ := e.doorDists(vp, p)
	out := make([]int32, 0, len(e.objs))
	for _, o := range e.objs {
		if d, _ := e.pointDist(dist, vp, p, o.Part, o.Loc); d <= r {
			out = append(out, o.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// KNN implements query.Engine by sorting the full object set by
// (distance, id) — the same tie-break every engine's top-k collector
// applies — and truncating to k reachable objects.
func (e *Engine) KNN(p indoor.Point, k int, st *query.Stats) ([]query.Neighbor, error) {
	if k <= 0 {
		return nil, nil
	}
	vp, ok := e.sp.HostPartition(p)
	if !ok {
		return nil, query.ErrNoHost
	}
	nn, _ := e.allDists(vp, p)
	if len(nn) > k {
		nn = nn[:k]
	}
	return nn, nil
}

// allDists returns every reachable object as a (id, dist) pair sorted by
// (dist, id), plus the door-distance vector it was derived from.
func (e *Engine) allDists(vp indoor.PartitionID, p indoor.Point) ([]query.Neighbor, []float64) {
	dist, _ := e.doorDists(vp, p)
	nn := make([]query.Neighbor, 0, len(e.objs))
	for _, o := range e.objs {
		d, _ := e.pointDist(dist, vp, p, o.Part, o.Loc)
		if math.IsInf(d, 1) {
			continue
		}
		nn = append(nn, query.Neighbor{ID: o.ID, Dist: d})
	}
	sort.Slice(nn, func(i, j int) bool {
		if nn[i].Dist != nn[j].Dist {
			return nn[i].Dist < nn[j].Dist
		}
		return nn[i].ID < nn[j].ID
	})
	return nn, dist
}

// AllDists returns the indoor distance from p to every reachable object,
// sorted by (distance, id). The differential harness uses it to snap
// query radii and k values away from floating-point decision boundaries.
func (e *Engine) AllDists(p indoor.Point) ([]query.Neighbor, error) {
	vp, ok := e.sp.HostPartition(p)
	if !ok {
		return nil, query.ErrNoHost
	}
	nn, _ := e.allDists(vp, p)
	return nn, nil
}

// SPD implements query.Engine.
func (e *Engine) SPD(p, q indoor.Point, st *query.Stats) (query.Path, error) {
	vp, ok := e.sp.HostPartition(p)
	if !ok {
		return query.Path{}, query.ErrNoHost
	}
	vq, ok := e.sp.HostPartition(q)
	if !ok {
		return query.Path{}, query.ErrNoHost
	}
	dist, prev := e.doorDists(vp, p)
	best, bestDoor := e.pointDist(dist, vp, p, vq, q)
	if math.IsInf(best, 1) {
		return query.Path{}, query.ErrUnreachable
	}
	var doors []indoor.DoorID
	for d := bestDoor; d != indoor.NoDoor; d = prev[d] {
		doors = append(doors, d)
	}
	for i, j := 0, len(doors)-1; i < j; i, j = i+1, j-1 {
		doors[i], doors[j] = doors[j], doors[i]
	}
	return query.Path{Source: p, Target: q, Doors: doors, Dist: best}, nil
}

// FromDoor returns the shortest door-graph distance from door d to every
// door: zero at d itself, then exhaustive relaxation. The metamorphic
// suite checks the triangle inequality over these vectors.
func (e *Engine) FromDoor(d indoor.DoorID) []float64 {
	n := e.sp.NumDoors()
	dist := make([]float64, n)
	prev := make([]indoor.DoorID, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = indoor.NoDoor
	}
	dist[d] = 0
	e.dijkstra(dist, prev)
	return dist
}
