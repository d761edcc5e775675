package indoor

import (
	"fmt"
	"sync/atomic"

	"indoorsq/internal/geom"
	"indoorsq/internal/snapshot"
)

// AppendTo writes the space — raw model AND derived geometry (MBRs,
// convexity, fdv max-reach arrays, visibility-graph matrices) — as the
// TagSpace section. Serializing the derived parts is what makes LoadSpace
// skip the expensive per-partition visibility construction: restoring a
// concave partition costs two slice views instead of O(V^2) segment tests
// plus one Dijkstra per door.
func (s *Space) AppendTo(w *snapshot.Writer) {
	sec := w.Begin(snapshot.TagSpace)
	sec.Str(s.Name)
	sec.U64(uint64(s.Floors))

	sec.U64(uint64(len(s.parts)))
	for i := range s.parts {
		v := &s.parts[i]
		sec.U64(uint64(v.Kind))
		sec.I64(int64(v.Floor))
		sec.I64(int64(v.TopFloor))
		sec.F64(v.StairLength)
		sec.Bool(v.convex)
		sec.F64(v.MBR.MinX)
		sec.F64(v.MBR.MinY)
		sec.F64(v.MBR.MaxX)
		sec.F64(v.MBR.MaxY)
		sec.F64s(flattenPoints(v.Poly))
		sec.I32s(doorIDs(v.Doors))
		sec.I32s(doorIDs(v.Enter))
		sec.I32s(doorIDs(v.Leave))
	}

	sec.U64(uint64(len(s.doors)))
	for i := range s.doors {
		d := &s.doors[i]
		sec.F64(d.P.X)
		sec.F64(d.P.Y)
		sec.I64(int64(d.Floor))
		sec.Bool(d.Virtual)
		sec.I32s(partIDs(d.Enterable))
		sec.I32s(partIDs(d.Leaveable))
		sec.I32s(partIDs(d.Parts))
	}

	// Derived geometry, per partition: fdv array, then the visibility-graph
	// matrices for concave non-staircase partitions.
	for i := range s.parts {
		sec.F64s(s.maxReach[i])
		if g := s.vg[i]; g != nil {
			sec.Bool(true)
			vadj, av := g.SnapshotArrays()
			sec.F64s(vadj)
			sec.F64s(av)
		} else {
			sec.Bool(false)
		}
	}
}

// LoadSpace reconstructs a Space from the TagSpace section. Cheap
// derivations (per-floor lists, the door-slot table) are recomputed;
// expensive ones (visibility graphs, fdv arrays) come from the section, with
// matrix rows aliasing the snapshot buffer. Full structural validation is
// skipped: the section CRC plus the caller's fingerprint check (see
// snapshot/bundle) guard integrity, and a snapshot is only ever written from
// a validated, built Space. What lookups index by is still checked, so a
// corrupt artifact fails to load instead of panicking later: floor ranges,
// partition→door references, and door incidence (every door connects two
// in-range partitions and appears in the Doors of both).
func LoadSpace(r *snapshot.Reader) (*Space, error) {
	sec, err := r.Section(snapshot.TagSpace)
	if err != nil {
		return nil, err
	}
	s := &Space{
		Name:   sec.Str(),
		Floors: sec.Int(),
	}
	np := sec.Int()
	if err := sec.Err(); err != nil {
		return nil, err
	}
	if np < 0 || np > 1<<28 {
		return nil, fmt.Errorf("indoor: snapshot partition count %d out of range", np)
	}
	s.parts = make([]Partition, np)
	for i := range s.parts {
		v := &s.parts[i]
		v.ID = PartitionID(i)
		v.Kind = Kind(sec.U64())
		v.Floor = int16(sec.I64())
		v.TopFloor = int16(sec.I64())
		v.StairLength = sec.F64()
		v.convex = sec.Bool()
		v.MBR = geom.Rect{MinX: sec.F64(), MinY: sec.F64(), MaxX: sec.F64(), MaxY: sec.F64()}
		v.Poly = geom.Polygon(unflattenPoints(sec.F64s()))
		v.Doors = idsDoor(sec.I32s())
		v.Enter = idsDoor(sec.I32s())
		v.Leave = idsDoor(sec.I32s())
	}
	nd := sec.Int()
	if err := sec.Err(); err != nil {
		return nil, err
	}
	if nd < 0 || nd > 1<<28 {
		return nil, fmt.Errorf("indoor: snapshot door count %d out of range", nd)
	}
	s.doors = make([]Door, nd)
	for i := range s.doors {
		d := &s.doors[i]
		d.ID = DoorID(i)
		d.P = geom.Point{X: sec.F64(), Y: sec.F64()}
		d.Floor = int16(sec.I64())
		d.Virtual = sec.Bool()
		d.Enterable = idsPart(sec.I32s())
		d.Leaveable = idsPart(sec.I32s())
		d.Parts = idsPart(sec.I32s())
	}
	if err := sec.Err(); err != nil {
		return nil, err
	}

	// Cheap derivations, through the helpers Build uses.
	if s.Floors <= 0 || s.Floors > 1<<16 {
		return nil, fmt.Errorf("indoor: snapshot floor count %d out of range", s.Floors)
	}
	s.vg = make([]*geom.VGraph, np)
	s.doorAnchor = make([][]int32, np)
	s.maxReach = make([][]float64, np)
	for i := range s.parts {
		v := &s.parts[i]
		if int(v.Floor) < 0 || int(v.TopFloor) >= s.Floors || v.Floor > v.TopFloor {
			return nil, fmt.Errorf("indoor: snapshot partition %d floor range [%d,%d] out of bounds", i, v.Floor, v.TopFloor)
		}
	}
	s.indexFloors()
	if err := s.deriveDoorSlots(); err != nil {
		return nil, err
	}

	// Expensive derivations, from the section.
	for i := range s.parts {
		v := &s.parts[i]
		s.maxReach[i] = sec.F64s()
		if len(s.maxReach[i]) != len(v.Doors) && sec.Err() == nil {
			return nil, fmt.Errorf("indoor: snapshot partition %d fdv length %d, want %d", i, len(s.maxReach[i]), len(v.Doors))
		}
		if !sec.Bool() {
			continue
		}
		vadj := sec.F64s()
		av := sec.F64s()
		if sec.Err() != nil {
			break
		}
		nv := len(v.Poly)
		anchors := make([]geom.Point, len(v.Doors))
		aidx := make([]int32, len(v.Doors))
		for j, d := range v.Doors {
			anchors[j] = s.doors[d].P
			aidx[j] = int32(j)
		}
		if len(vadj) != nv*nv || len(av) != len(anchors)*nv {
			return nil, fmt.Errorf("indoor: snapshot partition %d visibility matrices sized %d/%d, want %d/%d",
				i, len(vadj), len(av), nv*nv, len(anchors)*nv)
		}
		s.vg[i] = geom.RestoreVGraph(v.Poly, anchors, vadj, av)
		s.doorAnchor[i] = aidx
	}
	if err := sec.Err(); err != nil {
		return nil, err
	}
	s.dcache = newDistCache(s)
	return s, nil
}

// AppendTo writes every allocated distance-cache matrix as the TagDistCache
// section — the "warm pages" a replica preloads so its first queries skip
// the on-the-fly geodesic computations. Cells are raw Float64bits words;
// unfilled cells keep their sentinel and stay lazily computable after load.
// Sound to ship across processes because every filled cell is a pure
// function of the (fingerprint-checked) space.
func (c *DistCache) AppendTo(w *snapshot.Writer) {
	sec := w.Begin(snapshot.TagDistCache)
	var allocated []PartitionID
	for i := range c.mats {
		if c.mats[i].Load() != nil {
			allocated = append(allocated, PartitionID(i))
		}
	}
	sec.U64(uint64(len(allocated)))
	cells := []uint64(nil)
	for _, v := range allocated {
		m := c.mats[v].Load()
		sec.U64(uint64(v))
		sec.U64(uint64(m.n))
		cells = cells[:0]
		for i := range m.cells {
			cells = append(cells, m.cells[i].Load())
		}
		sec.U64s(cells)
	}
}

// LoadFrom preloads warm pages from the TagDistCache section into this
// (typically freshly created, empty) cache. Pages for unknown partitions or
// with mismatched door counts are rejected — that indicates a foreign
// snapshot, not a tolerable drift.
func (c *DistCache) LoadFrom(r *snapshot.Reader) error {
	if !r.Has(snapshot.TagDistCache) {
		return nil
	}
	sec, err := r.Section(snapshot.TagDistCache)
	if err != nil {
		return err
	}
	pages := sec.Int()
	for p := 0; p < pages && sec.Err() == nil; p++ {
		v := sec.I64()
		n := sec.Int()
		cells := sec.U64s()
		if sec.Err() != nil {
			break
		}
		if v < 0 || v >= int64(len(c.mats)) {
			return fmt.Errorf("indoor: distcache page for partition %d of %d", v, len(c.mats))
		}
		if want := len(c.sp.parts[v].Doors); n != want || len(cells) != n*n {
			return fmt.Errorf("indoor: distcache page for partition %d sized %d/%d, want %d doors", v, n, len(cells), want)
		}
		m := &doorMat{n: n, cells: make([]atomic.Uint64, n*n)}
		for i := range m.cells {
			m.cells[i].Store(cells[i])
		}
		c.mats[v].Store(m)
	}
	return sec.Err()
}

func flattenPoints(ps []geom.Point) []float64 {
	out := make([]float64, 0, len(ps)*2)
	for _, p := range ps {
		out = append(out, p.X, p.Y)
	}
	return out
}

func unflattenPoints(flat []float64) []geom.Point {
	out := make([]geom.Point, len(flat)/2)
	for i := range out {
		out[i] = geom.Point{X: flat[2*i], Y: flat[2*i+1]}
	}
	return out
}

func doorIDs(ids []DoorID) []int32 {
	out := make([]int32, len(ids))
	for i, id := range ids {
		out[i] = int32(id)
	}
	return out
}

func partIDs(ids []PartitionID) []int32 {
	out := make([]int32, len(ids))
	for i, id := range ids {
		out[i] = int32(id)
	}
	return out
}

func idsDoor(v []int32) []DoorID {
	out := make([]DoorID, len(v))
	for i, x := range v {
		out[i] = DoorID(x)
	}
	return out
}

func idsPart(v []int32) []PartitionID {
	out := make([]PartitionID, len(v))
	for i, x := range v {
		out[i] = PartitionID(x)
	}
	return out
}
