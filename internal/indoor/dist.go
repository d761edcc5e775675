package indoor

import (
	"fmt"
	"math"
	"slices"

	"indoorsq/internal/geom"
)

// doorIndexIn returns the position of door d in partition v's Doors slice,
// or -1 when d is not associated with v. Every door connects exactly two
// partitions, so the lookup is two compares against d's Parts and one read
// of the per-door slot table derived at Build and LoadSpace.
func (s *Space) doorIndexIn(v PartitionID, d DoorID) int {
	if uint(d) >= uint(len(s.doorSlot)) {
		return -1
	}
	parts := s.doors[d].Parts
	switch v {
	case parts[0]:
		return int(s.doorSlot[d][0])
	case parts[1]:
		return int(s.doorSlot[d][1])
	}
	return -1
}

// deriveDoorSlots builds the door-slot table behind doorIndexIn. It rejects
// a door whose Parts is not two in-range partitions, a partition listing a
// door that does not connect it, and a door missing from the Doors of a
// partition it connects: lookups trust this incidence, so a snapshot that
// breaks it must fail to load rather than panic later.
func (s *Space) deriveDoorSlots() error {
	np := PartitionID(len(s.parts))
	s.doorSlot = make([][2]int32, len(s.doors))
	for i := range s.doors {
		d := &s.doors[i]
		if len(d.Parts) != 2 {
			return fmt.Errorf("indoor: door %d connects %d partitions, want 2", i, len(d.Parts))
		}
		for _, v := range d.Parts {
			if v < 0 || v >= np {
				return fmt.Errorf("indoor: door %d references partition %d of %d", i, v, np)
			}
		}
		s.doorSlot[i] = [2]int32{-1, -1}
	}
	for i := range s.parts {
		for j, d := range s.parts[i].Doors {
			if int(d) < 0 || int(d) >= len(s.doors) {
				return fmt.Errorf("indoor: partition %d references door %d of %d", i, d, len(s.doors))
			}
			k := slices.Index(s.doors[d].Parts, PartitionID(i))
			if k < 0 {
				return fmt.Errorf("indoor: partition %d lists door %d, which does not connect it", i, d)
			}
			s.doorSlot[d][k] = int32(j)
		}
	}
	for i, slot := range s.doorSlot {
		for k, j := range slot {
			if j < 0 {
				return fmt.Errorf("indoor: door %d missing from the doors of partition %d", i, s.doors[i].Parts[k])
			}
		}
	}
	return nil
}

// DoorIndex exposes doorIndexIn to engines that address per-partition
// arrays by door position (e.g. IDMODEL's fd2d matrices): the position of d
// in Partition(v).Doors, or -1 when d is not a door of v.
func (s *Space) DoorIndex(v PartitionID, d DoorID) int { return s.doorIndexIn(v, d) }

// WithinPoints returns the intra-partition distance ‖a,b‖v between two
// points hosted by partition v. For convex partitions this is the Euclidean
// distance; for concave partitions it is the visibility-graph geodesic; for
// staircases it is the stair length when a and b are on different floors.
// It returns +Inf when either point is outside v.
func (s *Space) WithinPoints(v PartitionID, a, b Point) float64 {
	part := &s.parts[v]
	if part.Kind == Staircase {
		if a.Floor != b.Floor {
			return part.StairLength
		}
		return a.XY().Dist(b.XY())
	}
	if a.Floor != part.Floor || b.Floor != part.Floor {
		return math.Inf(1)
	}
	if part.convex {
		if !part.Poly.Contains(a.XY()) || !part.Poly.Contains(b.XY()) {
			return math.Inf(1)
		}
		return a.XY().Dist(b.XY())
	}
	return s.vg[v].Dist(a.XY(), b.XY())
}

// WithinPointsStop is WithinPoints with a cancellation probe: a concave
// partition's geodesic sweep polls stop between vertex settlements and bails
// out with +Inf when it reports true. A nil stop (the untracked common case)
// is exactly WithinPoints. Callers that can be interrupted must distinguish
// the abort from genuine unreachability themselves (e.g. via
// query.Stats.Interrupted).
func (s *Space) WithinPointsStop(v PartitionID, a, b Point, stop func() bool) float64 {
	if stop == nil {
		return s.WithinPoints(v, a, b)
	}
	part := &s.parts[v]
	if part.Kind == Staircase || part.convex {
		return s.WithinPoints(v, a, b)
	}
	if a.Floor != part.Floor || b.Floor != part.Floor {
		return math.Inf(1)
	}
	return s.vg[v].DistStop(a.XY(), b.XY(), stop)
}

// WithinPointDoor returns ‖p,d‖v: the intra-partition distance from point p
// in partition v to door d of v. It returns +Inf when d is not a door of v
// or p lies outside v.
func (s *Space) WithinPointDoor(v PartitionID, p Point, d DoorID) float64 {
	i := s.doorIndexIn(v, d)
	if i < 0 {
		return math.Inf(1)
	}
	part := &s.parts[v]
	door := &s.doors[d]
	if part.Kind == Staircase {
		if p.Floor != door.Floor {
			return part.StairLength
		}
		return p.XY().Dist(door.P)
	}
	if p.Floor != part.Floor {
		return math.Inf(1)
	}
	if part.convex {
		if !part.Poly.Contains(p.XY()) {
			return math.Inf(1)
		}
		return p.XY().Dist(door.P)
	}
	return s.vg[v].DistToAnchor(p.XY(), int(s.doorAnchor[v][i]))
}

// WithinDoors returns the geometric distance between doors di and dj through
// the interior of partition v — the quantity the fd2d mapping materializes
// (Sec. 3.1). Direction rules (di enterable, dj leaveable) are applied by
// the engines, not here. It returns +Inf when either door is not a door of v.
//
// This is the uncached, on-the-fly computation (for concave partitions it
// costs one visibility sweep). Hot paths that revisit door pairs should use
// WithinDoorsCached, which memoizes bit-identical values.
func (s *Space) WithinDoors(v PartitionID, di, dj DoorID) float64 {
	ii := s.doorIndexIn(v, di)
	if ii < 0 {
		return math.Inf(1)
	}
	jj := ii
	if dj != di {
		jj = s.doorIndexIn(v, dj)
		if jj < 0 {
			return math.Inf(1)
		}
	}
	return s.withinDoorsAt(v, ii, jj)
}

// withinDoorsAt computes ‖di,dj‖v addressed by door positions within
// partition v's Doors slice. It is the single computation both WithinDoors
// and the distance cache's fill path call, which is what guarantees cached
// and uncached results are bit-identical.
//
// The result is canonicalized to the domain "finite non-negative or +Inf":
// a NaN (reachable only through degenerate geometry, e.g. a door with NaN
// coordinates) becomes +Inf. Besides being the honest answer — the pair is
// not usefully reachable — this keeps every representable distance distinct
// from the DistCache unfilled sentinel, whose bit pattern is Go's canonical
// NaN: an uncanonicalized NaN distance would CAS-republish the sentinel and
// turn the cell into a permanent miss recomputed on every probe.
func (s *Space) withinDoorsAt(v PartitionID, ii, jj int) float64 {
	d := s.rawWithinDoorsAt(v, ii, jj)
	if math.IsNaN(d) {
		return math.Inf(1)
	}
	return d
}

func (s *Space) rawWithinDoorsAt(v PartitionID, ii, jj int) float64 {
	if ii == jj {
		return 0
	}
	part := &s.parts[v]
	a, b := &s.doors[part.Doors[ii]], &s.doors[part.Doors[jj]]
	if part.Kind == Staircase {
		if a.Floor != b.Floor {
			return part.StairLength
		}
		return a.P.Dist(b.P)
	}
	if part.convex {
		return a.P.Dist(b.P)
	}
	return s.vg[v].AnchorDist(int(s.doorAnchor[v][ii]), int(s.doorAnchor[v][jj]))
}

// MaxReach returns fdv(d, v): the longest intra-partition distance one can
// travel within partition v after entering through door d, or +Inf when d is
// not an enterable door of v (Sec. 3.1).
func (s *Space) MaxReach(d DoorID, v PartitionID) float64 {
	for _, e := range s.parts[v].Enter {
		if e == d {
			i := s.doorIndexIn(v, d)
			return s.maxReach[v][i]
		}
	}
	return math.Inf(1)
}

// EuclideanLB returns a lower bound on the indoor distance from a to b:
// the planar Euclidean distance when the points share a floor, and the
// accumulated minimum floor-to-floor stair length otherwise. Engines use it
// for pruning only.
func (s *Space) EuclideanLB(a, b Point) float64 {
	d := a.XY().Dist(b.XY())
	if a.Floor != b.Floor {
		diff := a.Floor - b.Floor
		if diff < 0 {
			diff = -diff
		}
		d += float64(diff) * s.minStairLength()
	}
	return d
}

func (s *Space) minStairLength() float64 {
	m := math.Inf(1)
	for i := range s.parts {
		if s.parts[i].Kind == Staircase && s.parts[i].StairLength < m {
			m = s.parts[i].StairLength
		}
	}
	if math.IsInf(m, 1) {
		return 0
	}
	return m
}

// DoorPoint returns door d's location as an indoor Point.
func (s *Space) DoorPoint(d DoorID) Point {
	door := &s.doors[d]
	return Point{X: door.P.X, Y: door.P.Y, Floor: door.Floor}
}

// leavesInto reports whether one can go through door d out of partition from
// and into partition to, honouring door direction.
func (s *Space) leavesInto(d DoorID, from, to PartitionID) bool {
	door := &s.doors[d]
	okFrom, okTo := false, false
	for _, v := range door.Leaveable {
		if v == from {
			okFrom = true
			break
		}
	}
	for _, v := range door.Enterable {
		if v == to {
			okTo = true
			break
		}
	}
	return okFrom && okTo && from != to
}

// CanTraverse reports whether door d permits movement from partition `from`
// to partition `to` (the D2P(d) relation of Sec. 2.1).
func (s *Space) CanTraverse(d DoorID, from, to PartitionID) bool {
	return s.leavesInto(d, from, to)
}

// PointRef is a reusable handle to a point inside a known partition: for
// concave partitions it caches the point's geodesic vertex distances so
// repeated distance computations (object bucket scans) cost O(vertices)
// instead of a fresh visibility sweep.
type PointRef struct {
	V   PartitionID
	P   Point
	src *geom.Source // nil for convex partitions and staircases
	ok  bool
}

// Ref prepares a reusable handle for point p hosted by partition v.
func (s *Space) Ref(v PartitionID, p Point) PointRef {
	part := &s.parts[v]
	r := PointRef{V: v, P: p}
	if part.Kind == Staircase {
		r.ok = true
		return r
	}
	if p.Floor != part.Floor {
		return r
	}
	if part.convex {
		r.ok = part.Poly.Contains(p.XY())
		return r
	}
	r.src = s.vg[v].SourceFrom(p.XY())
	r.ok = true
	return r
}

// RefDist returns ‖a,b‖v for two handles of the same partition.
func (s *Space) RefDist(a, b PointRef) float64 {
	if a.V != b.V || !a.ok || !b.ok {
		return math.Inf(1)
	}
	part := &s.parts[a.V]
	if part.Kind == Staircase {
		if a.P.Floor != b.P.Floor {
			return part.StairLength
		}
		return a.P.XY().Dist(b.P.XY())
	}
	if part.convex {
		return a.P.XY().Dist(b.P.XY())
	}
	return a.src.DistToSource(b.src)
}

// RefToDoor returns ‖a,d‖v for a handle and a door of its partition.
// Geodesics within a partition are symmetric, so this also serves as the
// door-to-point distance.
func (s *Space) RefToDoor(a PointRef, d DoorID) float64 {
	if !a.ok {
		return math.Inf(1)
	}
	i := s.doorIndexIn(a.V, d)
	if i < 0 {
		return math.Inf(1)
	}
	part := &s.parts[a.V]
	door := &s.doors[d]
	if part.Kind == Staircase {
		if a.P.Floor != door.Floor {
			return part.StairLength
		}
		return a.P.XY().Dist(door.P)
	}
	if part.convex {
		return a.P.XY().Dist(door.P)
	}
	return a.src.DistToAnchor(int(s.doorAnchor[a.V][i]))
}
