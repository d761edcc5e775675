// Package indoor implements the indoor space model shared by all five
// model/indexes in the study: partitions (rooms, hallways, staircases),
// doors (including unidirectional doors and virtual doors created by
// decomposition), and the topology mappings of Sec. 2.1 of the paper —
// D2P⊢ / D2P⊣ / D2P for doors and P2D⊢ / P2D⊣ / P2D for partitions.
//
// A Space is immutable once built; it supplies the raw geometric and
// topological facts (host-partition lookup, intra-partition distances,
// door-to-door distances within a partition, the fdv max-reach mapping).
// Each model/index engine layers its own precomputed structures on top.
package indoor

import (
	"fmt"

	"indoorsq/internal/geom"
)

// PartitionID identifies a partition within one Space.
type PartitionID int32

// DoorID identifies a door within one Space.
type DoorID int32

// NoPartition is the sentinel for "no partition".
const NoPartition PartitionID = -1

// NoDoor is the sentinel for "no door".
const NoDoor DoorID = -1

// Kind classifies a partition.
type Kind uint8

// Partition kinds.
const (
	Room Kind = iota
	Hallway
	Staircase
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Room:
		return "room"
	case Hallway:
		return "hallway"
	case Staircase:
		return "staircase"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Point is an indoor location: planar coordinates plus a floor number.
type Point struct {
	X, Y  float64
	Floor int16
}

// At is shorthand for Point{x, y, floor}.
func At(x, y float64, floor int16) Point { return Point{X: x, Y: y, Floor: floor} }

// XY projects p onto the plane.
func (p Point) XY() geom.Point { return geom.Point{X: p.X, Y: p.Y} }

// Partition is an indoor partition: a room, hallway piece, or staircase.
// Staircases span two floors: their polygon is the footprint, and travel
// between their doors on different floors costs StairLength.
type Partition struct {
	ID       PartitionID
	Kind     Kind
	Floor    int16 // the (lower, for staircases) floor this partition is on
	TopFloor int16 // == Floor except for staircases

	Poly geom.Polygon
	MBR  geom.Rect

	// StairLength is the walking length of a staircase between its two
	// floors; zero for non-staircases.
	StairLength float64

	// Doors is P2D(v): all doors associated with this partition.
	Doors []DoorID
	// Enter is P2D⊢(v): doors through which one can enter this partition.
	Enter []DoorID
	// Leave is P2D⊣(v): doors through which one can leave this partition.
	Leave []DoorID

	convex bool
}

// Convex reports whether the partition's footprint is convex, in which case
// intra-partition distances are Euclidean.
func (v *Partition) Convex() bool { return v.convex }

// Door is a door or an open segment between two partitions, represented by
// its center point (Sec. 2.1). Virtual doors are created by hallway
// decomposition. A unidirectional door has disjoint Enterable/Leaveable sets.
type Door struct {
	ID      DoorID
	P       geom.Point
	Floor   int16
	Virtual bool

	// Enterable is D2P⊢(d): partitions one can enter through this door.
	Enterable []PartitionID
	// Leaveable is D2P⊣(d): partitions one can leave through this door.
	Leaveable []PartitionID
	// Parts is the union of Enterable and Leaveable, without duplicates.
	Parts []PartitionID
}

// Bidirectional reports whether the door can be crossed in both directions.
func (d *Door) Bidirectional() bool {
	return len(d.Enterable) == len(d.Parts) && len(d.Leaveable) == len(d.Parts)
}

// Space is an immutable indoor space: the partitions, doors, and topology
// mappings of one venue.
type Space struct {
	Name   string
	Floors int

	parts []Partition
	doors []Door

	byFloor [][]PartitionID // partitions per floor (staircases on both)
	// floorMBR[f][i] is the MBR of partition byFloor[f][i]: the packed
	// array HostPartition's sequential scan reads (see indexFloors).
	floorMBR [][]geom.Rect

	vg         []*geom.VGraph // per partition; nil when convex or staircase
	doorAnchor [][]int32      // per partition: anchor index per Doors entry
	maxReach   [][]float64    // fdv: per partition, aligned with Doors

	// doorSlot[d][k] is the position of door d in the Doors slice of its
	// partition Parts[k] — the O(1) lookup behind every WithinDoors,
	// WithinPointDoor and RefToDoor call (see doorIndexIn).
	doorSlot [][2]int32

	// dcache lazily memoizes door-pair distances; see distcache.go.
	dcache *DistCache
}

// NumPartitions returns the number of partitions.
func (s *Space) NumPartitions() int { return len(s.parts) }

// NumDoors returns the number of doors.
func (s *Space) NumDoors() int { return len(s.doors) }

// Partition returns the partition with the given id.
func (s *Space) Partition(id PartitionID) *Partition { return &s.parts[id] }

// Door returns the door with the given id.
func (s *Space) Door(id DoorID) *Door { return &s.doors[id] }

// Partitions returns the full partition slice; callers must not modify it.
func (s *Space) Partitions() []Partition { return s.parts }

// Doors returns the full door slice; callers must not modify it.
func (s *Space) Doors() []Door { return s.doors }

// OnFloor returns the ids of partitions present on the given floor
// (staircases appear on both of their floors).
func (s *Space) OnFloor(floor int16) []PartitionID {
	if int(floor) < 0 || int(floor) >= len(s.byFloor) {
		return nil
	}
	return s.byFloor[floor]
}

// HostBefore is the one host rule: of two partitions that both contain a
// point (it lies on a wall they share, or on a staircase landing), a
// non-staircase beats a staircase, then the lower id wins. HostPartition
// and every other host lookup (CINDEX's R-tree filter) pick by it, so all
// engines start from the same partition at boundary points.
func HostBefore(a, b *Partition) bool {
	if (a.Kind == Staircase) != (b.Kind == Staircase) {
		return b.Kind == Staircase
	}
	return a.ID < b.ID
}

// HostAmong applies the host rule to candidate partition ids (in any order,
// e.g. an R-tree's MBR hits): the winner among those on p's floor whose
// polygon contains p.
func (s *Space) HostAmong(p Point, cands []int32) (PartitionID, bool) {
	var host *Partition
	for _, c := range cands {
		v := &s.parts[c]
		if p.Floor < v.Floor || p.Floor > v.TopFloor || (host != nil && !HostBefore(v, host)) {
			continue
		}
		if v.Poly.Contains(p.XY()) {
			host = v
		}
	}
	if host == nil {
		return NoPartition, false
	}
	return host.ID, true
}

// HostPartition locates the partition containing p by sequentially scanning
// the partitions of p's floor — the initialization step used by IDMODEL,
// IDINDEX, IP-TREE and VIP-TREE (Sec. 4.1). The scan reads the floor's
// packed MBR array in OnFloor order (ascending id) and tests a polygon only
// on an MBR hit; the first containing non-staircase is the HostBefore
// winner, so the scan stops there.
func (s *Space) HostPartition(p Point) (PartitionID, bool) {
	if int(p.Floor) < 0 || int(p.Floor) >= len(s.byFloor) {
		return NoPartition, false
	}
	ids, mbrs := s.byFloor[p.Floor], s.floorMBR[p.Floor]
	q := p.XY()
	host := NoPartition
	for i := range mbrs {
		if !mbrs[i].Contains(q) {
			continue
		}
		v := &s.parts[ids[i]]
		if !v.Poly.Contains(q) {
			continue
		}
		if v.Kind != Staircase {
			return v.ID, true
		}
		if host == NoPartition {
			host = v.ID
		}
	}
	return host, host != NoPartition
}

// indexFloors derives byFloor and floorMBR from the partitions' floor
// ranges and MBRs. Build and LoadSpace both call it once the partitions
// are in place, so the two paths scan identical arrays.
func (s *Space) indexFloors() {
	s.byFloor = make([][]PartitionID, s.Floors)
	s.floorMBR = make([][]geom.Rect, s.Floors)
	for i := range s.parts {
		v := &s.parts[i]
		for f := v.Floor; f <= v.TopFloor; f++ {
			s.byFloor[f] = append(s.byFloor[f], v.ID)
			s.floorMBR[f] = append(s.floorMBR[f], v.MBR)
		}
	}
}

// Contains reports whether p is a valid indoor point of the space.
func (s *Space) Contains(p Point) bool {
	_, ok := s.HostPartition(p)
	return ok
}
