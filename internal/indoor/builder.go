package indoor

import (
	"fmt"

	"indoorsq/internal/geom"
)

// Builder assembles a Space incrementally. Create one with NewBuilder, add
// partitions and doors, connect them, then call Build. A Builder must not be
// reused after Build succeeds.
type Builder struct {
	name   string
	floors int
	parts  []Partition
	doors  []Door
}

// NewBuilder returns a Builder for a space with the given number of floors
// (floors are numbered 0..floors-1).
func NewBuilder(name string, floors int) *Builder {
	return &Builder{name: name, floors: floors}
}

// AddPartition adds a room or hallway with the given footprint on a floor
// and returns its id.
func (b *Builder) AddPartition(kind Kind, floor int16, poly geom.Polygon) PartitionID {
	id := PartitionID(len(b.parts))
	b.parts = append(b.parts, Partition{
		ID:       id,
		Kind:     kind,
		Floor:    floor,
		TopFloor: floor,
		Poly:     poly,
	})
	return id
}

// AddRoom adds a room partition.
func (b *Builder) AddRoom(floor int16, poly geom.Polygon) PartitionID {
	return b.AddPartition(Room, floor, poly)
}

// AddHallway adds a hallway partition.
func (b *Builder) AddHallway(floor int16, poly geom.Polygon) PartitionID {
	return b.AddPartition(Hallway, floor, poly)
}

// AddStair adds a staircase spanning floors low..high with the given
// footprint; length is the walking distance between its floor ends.
func (b *Builder) AddStair(low, high int16, poly geom.Polygon, length float64) PartitionID {
	id := PartitionID(len(b.parts))
	b.parts = append(b.parts, Partition{
		ID:          id,
		Kind:        Staircase,
		Floor:       low,
		TopFloor:    high,
		Poly:        poly,
		StairLength: length,
	})
	return id
}

// AddDoor adds a door at point p on the given floor and returns its id.
// The door is unusable until connected.
func (b *Builder) AddDoor(p geom.Point, floor int16) DoorID {
	id := DoorID(len(b.doors))
	b.doors = append(b.doors, Door{ID: id, P: p, Floor: floor})
	return id
}

// AddVirtualDoor adds a decomposition-created open segment represented by
// its center point.
func (b *Builder) AddVirtualDoor(p geom.Point, floor int16) DoorID {
	id := b.AddDoor(p, floor)
	b.doors[id].Virtual = true
	return id
}

// ConnectBoth makes door d a bidirectional connection between v1 and v2.
func (b *Builder) ConnectBoth(d DoorID, v1, v2 PartitionID) {
	b.ConnectOneWay(d, v1, v2)
	b.ConnectOneWay(d, v2, v1)
}

// ConnectOneWay makes door d traversable from partition `from` into
// partition `to` (only). Calling it twice with swapped arguments is
// equivalent to ConnectBoth.
func (b *Builder) ConnectOneWay(d DoorID, from, to PartitionID) {
	door := &b.doors[d]
	door.Leaveable = appendUniqueP(door.Leaveable, from)
	door.Enterable = appendUniqueP(door.Enterable, to)
	door.Parts = appendUniqueP(appendUniqueP(door.Parts, from), to)

	fp := &b.parts[from]
	fp.Leave = appendUniqueD(fp.Leave, d)
	fp.Doors = appendUniqueD(fp.Doors, d)
	tp := &b.parts[to]
	tp.Enter = appendUniqueD(tp.Enter, d)
	tp.Doors = appendUniqueD(tp.Doors, d)
}

func appendUniqueP(s []PartitionID, v PartitionID) []PartitionID {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

func appendUniqueD(s []DoorID, d DoorID) []DoorID {
	for _, x := range s {
		if x == d {
			return s
		}
	}
	return append(s, d)
}

// Build validates the assembled space, derives the topology mappings and the
// geometric acceleration structures, and returns the immutable Space.
func (b *Builder) Build() (*Space, error) {
	s := &Space{
		Name:   b.name,
		Floors: b.floors,
		parts:  b.parts,
		doors:  b.doors,
	}
	// deriveDoorSlots checks that every door connects two partitions, which
	// validate relies on.
	if err := s.deriveDoorSlots(); err != nil {
		return nil, err
	}
	if err := s.validate(); err != nil {
		return nil, err
	}

	s.vg = make([]*geom.VGraph, len(s.parts))
	s.doorAnchor = make([][]int32, len(s.parts))
	s.maxReach = make([][]float64, len(s.parts))

	for i := range s.parts {
		v := &s.parts[i]
		v.MBR = v.Poly.Bounds()
		v.convex = v.Poly.IsConvex()

		if !v.convex && v.Kind != Staircase {
			anchors := make([]geom.Point, len(v.Doors))
			idx := make([]int32, len(v.Doors))
			for j, d := range v.Doors {
				anchors[j] = s.doors[d].P
				idx[j] = int32(j)
			}
			s.vg[i] = geom.NewVGraph(v.Poly, anchors)
			s.doorAnchor[i] = idx
		}

		reach := make([]float64, len(v.Doors))
		for j, d := range v.Doors {
			switch {
			case v.Kind == Staircase:
				reach[j] = v.StairLength
			case v.convex:
				reach[j] = v.Poly.MaxDistFrom(s.doors[d].P)
			default:
				reach[j] = s.vg[i].MaxDistFrom(s.doors[d].P)
			}
		}
		s.maxReach[i] = reach
	}
	s.indexFloors()
	s.dcache = newDistCache(s)
	return s, nil
}

// validate checks structural consistency of the space before derivation.
func (s *Space) validate() error {
	if s.Floors <= 0 {
		return fmt.Errorf("indoor: space %q has %d floors", s.Name, s.Floors)
	}
	for i := range s.parts {
		v := &s.parts[i]
		if err := v.Poly.Validate(); err != nil {
			return fmt.Errorf("indoor: partition %d: %w", v.ID, err)
		}
		if int(v.Floor) < 0 || int(v.TopFloor) >= s.Floors || v.Floor > v.TopFloor {
			return fmt.Errorf("indoor: partition %d has bad floor range [%d,%d]", v.ID, v.Floor, v.TopFloor)
		}
		if v.Kind == Staircase && v.StairLength <= 0 {
			return fmt.Errorf("indoor: staircase %d has non-positive length", v.ID)
		}
		if len(v.Doors) == 0 {
			return fmt.Errorf("indoor: partition %d has no doors", v.ID)
		}
	}
	for i := range s.doors {
		d := &s.doors[i]
		if len(d.Enterable) == 0 || len(d.Leaveable) == 0 {
			return fmt.Errorf("indoor: door %d is not traversable", d.ID)
		}
		if int(d.Floor) < 0 || int(d.Floor) >= s.Floors {
			return fmt.Errorf("indoor: door %d on bad floor %d", d.ID, d.Floor)
		}
		for _, vid := range d.Parts {
			v := &s.parts[vid]
			if v.Kind != Staircase && d.Floor != v.Floor {
				return fmt.Errorf("indoor: door %d (floor %d) attached to partition %d on floor %d",
					d.ID, d.Floor, v.ID, v.Floor)
			}
			if v.Kind == Staircase && (d.Floor < v.Floor || d.Floor > v.TopFloor) {
				return fmt.Errorf("indoor: door %d (floor %d) outside staircase %d floors [%d,%d]",
					d.ID, d.Floor, v.ID, v.Floor, v.TopFloor)
			}
			if !v.Poly.Contains(d.P) {
				return fmt.Errorf("indoor: door %d at %v lies outside partition %d", d.ID, d.P, v.ID)
			}
		}
	}
	return nil
}

// GeomSizeBytes returns the resident size of the shared geometric
// acceleration structures (per-partition visibility graphs and fdv arrays).
// Engines fold this into their model-size accounting.
func (s *Space) GeomSizeBytes() int64 {
	var sz int64
	for i := range s.parts {
		if s.vg[i] != nil {
			sz += s.vg[i].SizeBytes()
		}
		sz += int64(len(s.maxReach[i])) * 8
	}
	return sz
}

// BaseSizeBytes returns the resident size of the raw space representation
// (partitions, polygons, doors, topology mappings), which every model/index
// shares.
func (s *Space) BaseSizeBytes() int64 {
	var sz int64
	for i := range s.parts {
		v := &s.parts[i]
		sz += 64 // fixed fields
		sz += int64(len(v.Poly)) * 16
		sz += int64(len(v.Doors)+len(v.Enter)+len(v.Leave)) * 4
	}
	for i := range s.doors {
		d := &s.doors[i]
		sz += 32
		sz += int64(len(d.Enterable)+len(d.Leaveable)+len(d.Parts)) * 4
	}
	return sz
}
