// Package workload generates the object sets and query instances of the
// paper's benchmark (Sec. 5.2): random valid indoor objects, random query
// points for RQ/kNNQ, and SPDQ source-target pairs whose shortest indoor
// distance approximates a controlled s2t value.
package workload

import (
	"context"
	"errors"
	"math"
	"math/rand"

	"indoorsq/internal/doorgraph"
	"indoorsq/internal/indoor"
	"indoorsq/internal/pq"
	"indoorsq/internal/query"
)

// Generator produces reproducible workloads over one space.
type Generator struct {
	sp  *indoor.Space
	g   *doorgraph.Graph
	rng *rand.Rand

	parts []indoor.PartitionID // candidate host partitions (non-staircase)
	cum   []float64            // cumulative area weights
}

// New returns a generator seeded deterministically.
func New(sp *indoor.Space, seed int64) *Generator {
	g := &Generator{
		sp:  sp,
		rng: rand.New(rand.NewSource(seed)),
	}
	var total float64
	for i := range sp.Partitions() {
		v := sp.Partition(indoor.PartitionID(i))
		if v.Kind == indoor.Staircase {
			continue
		}
		total += v.Poly.Area()
		g.parts = append(g.parts, v.ID)
		g.cum = append(g.cum, total)
	}
	return g
}

// graph lazily builds the door graph (needed only for SPDQ pairs).
func (g *Generator) graph() *doorgraph.Graph {
	if g.g == nil {
		g.g = doorgraph.Build(g.sp)
	}
	return g.g
}

// Point returns a uniformly distributed valid indoor point (area-weighted
// over non-staircase partitions).
func (g *Generator) Point() indoor.Point {
	p, _ := g.PointIn()
	return p
}

// PointIn returns a random valid point together with its host partition.
func (g *Generator) PointIn() (indoor.Point, indoor.PartitionID) {
	for {
		x := g.rng.Float64() * g.cum[len(g.cum)-1]
		lo, hi := 0, len(g.cum)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if g.cum[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		v := g.parts[lo]
		if p, ok := g.pointWithin(v); ok {
			return p, v
		}
	}
}

// pointWithin rejection-samples a point inside partition v.
func (g *Generator) pointWithin(v indoor.PartitionID) (indoor.Point, bool) {
	part := g.sp.Partition(v)
	for try := 0; try < 64; try++ {
		x := part.MBR.MinX + g.rng.Float64()*part.MBR.Width()
		y := part.MBR.MinY + g.rng.Float64()*part.MBR.Height()
		p := indoor.At(x, y, part.Floor)
		if part.Poly.Contains(p.XY()) {
			// Verify the point is not claimed by another partition first
			// (e.g. a point exactly on a shared wall).
			if host, ok := g.sp.HostPartition(p); ok && host == v {
				return p, true
			}
		}
	}
	return indoor.Point{}, false
}

// Objects generates n static objects at random valid locations.
func (g *Generator) Objects(n int) []query.Object {
	objs := make([]query.Object, n)
	for i := range objs {
		p, v := g.PointIn()
		objs[i] = query.Object{ID: int32(i), Loc: p, Part: v}
	}
	return objs
}

// Points generates n random query points.
func (g *Generator) Points(n int) []indoor.Point {
	pts := make([]indoor.Point, n)
	for i := range pts {
		pts[i] = g.Point()
	}
	return pts
}

// Pair is one SPDQ instance.
type Pair struct {
	P, Q indoor.Point
	// Dist is the shortest indoor distance from P to Q, computed during
	// generation (useful as ground truth in tests).
	Dist float64
}

// ErrNoPair reports that SPDPairs gave up after maxMisses draws in a row
// found no target near s2t — typically a venue with no door within 1.2·s2t
// of any source.
var ErrNoPair = errors.New("workload: no SPD pair near s2t")

// maxMisses bounds the consecutive failed pair draws of one SPDPairs call.
// The longest run any draw in this repository makes is 3,135 (isqsnap
// verify's s2t 0.5 on HSM), so the bound cuts short no draw that succeeds.
const maxMisses = 10000

// SPDPairs generates n source-target pairs whose indoor distance
// approximates s2t (within ±15%, best effort): a random source p is chosen,
// doors are expanded from p as in the paper, and a target q is sampled
// beyond a door whose distance approaches s2t. Generation polls ctx between
// candidate sources (each candidate runs a bounded door Dijkstra), so an
// oversized or unlucky workload build can be cancelled or deadline-bounded;
// the pairs generated so far are returned alongside the context's error, or
// alongside ErrNoPair after maxMisses failed draws in a row.
func (g *Generator) SPDPairs(ctx context.Context, s2t float64, n int) ([]Pair, error) {
	pairs := make([]Pair, 0, n)
	for misses := 0; len(pairs) < n; {
		pr, ok, err := g.spdPair(ctx, s2t)
		if err != nil {
			return pairs, err
		}
		if !ok {
			if misses++; misses == maxMisses {
				return pairs, ErrNoPair
			}
			continue
		}
		pairs = append(pairs, pr)
		misses = 0
	}
	return pairs, nil
}

func (g *Generator) spdPair(ctx context.Context, s2t float64) (Pair, bool, error) {
	const tol = 0.15
	best := Pair{Dist: math.Inf(1)}
	bestErr := math.Inf(1)
	for attempt := 0; attempt < 24; attempt++ {
		if err := ctx.Err(); err != nil {
			return Pair{}, false, err
		}
		p, vp := g.PointIn()
		dist := g.distFrom(p, vp, s2t*1.2)
		// Choose the reachable door closest below s2t.
		var door indoor.DoorID = indoor.NoDoor
		dd := -1.0
		for d, dv := range dist {
			if dv <= s2t && dv > dd {
				door = indoor.DoorID(d)
				dd = dv
			}
		}
		if door == indoor.NoDoor {
			continue
		}
		// Sample candidate targets in the door's enterable partitions and
		// keep the one whose true distance from p is nearest s2t.
		enter := g.sp.Door(door).Enterable
		for trial := 0; trial < 16; trial++ {
			v := enter[g.rng.Intn(len(enter))]
			if g.sp.Partition(v).Kind == indoor.Staircase {
				continue
			}
			q, ok := g.pointWithin(v)
			if !ok {
				continue
			}
			true_ := g.trueDist(dist, p, vp, q, v)
			if math.IsInf(true_, 1) {
				continue
			}
			if err := math.Abs(true_ - s2t); err < bestErr {
				bestErr = err
				best = Pair{P: p, Q: q, Dist: true_}
			}
		}
		if bestErr <= tol*s2t {
			return best, true, nil
		}
	}
	return best, !math.IsInf(best.Dist, 1), nil
}

// distFrom runs a door Dijkstra from p (bounded by limit) and returns the
// per-door distance array.
func (g *Generator) distFrom(p indoor.Point, vp indoor.PartitionID, limit float64) []float64 {
	dg := g.graph()
	dist := make([]float64, dg.N)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	var h pq.Heap[int32]
	h.Grow(dg.N)
	for _, d := range g.sp.Partition(vp).Leave {
		w := g.sp.WithinPointDoor(vp, p, d)
		if w < dist[d] {
			dist[d] = w
			h.Push(int32(d), w)
		}
	}
	for h.Len() > 0 {
		d, dd := h.Pop()
		if dd > dist[d] || dd > limit {
			continue
		}
		to, w := dg.FwdRow(int(d))
		for i, t := range to {
			if nd := dd + w[i]; nd < dist[t] {
				dist[t] = nd
				h.Push(t, nd)
			}
		}
	}
	return dist
}

// trueDist computes the exact indoor distance from p (with door distances
// dist) to q in partition vq.
func (g *Generator) trueDist(dist []float64, p indoor.Point, vp indoor.PartitionID, q indoor.Point, vq indoor.PartitionID) float64 {
	best := math.Inf(1)
	if vp == vq {
		best = g.sp.WithinPoints(vp, p, q)
	}
	for _, d := range g.sp.Partition(vq).Enter {
		if math.IsInf(dist[d], 1) {
			continue
		}
		if cand := dist[d] + g.sp.WithinPointDoor(vq, q, d); cand < best {
			best = cand
		}
	}
	return best
}
