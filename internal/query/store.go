package query

import (
	"fmt"

	"indoorsq/internal/indoor"
)

// ObjectStore keeps static objects in per-partition buckets plus an object
// hashtable (the object layer of CINDEX, reused by every engine; its cost is
// excluded from model sizes as in Sec. 6.1 of the paper). For objects hosted
// by concave partitions it caches each object's geodesic vertex distances so
// bucket scans avoid repeated visibility sweeps.
type ObjectStore struct {
	objs    []Object
	refs    []indoor.PointRef
	buckets [][]int32
}

// NewObjectStore distributes objs into per-partition buckets of space sp.
// Object ids must be unique; Part must be a valid partition id.
func NewObjectStore(sp *indoor.Space, objs []Object) *ObjectStore {
	n := sp.NumPartitions()
	s := &ObjectStore{
		objs:    append([]Object(nil), objs...),
		refs:    make([]indoor.PointRef, len(objs)),
		buckets: make([][]int32, n),
	}
	for i := range s.objs {
		o := &s.objs[i]
		if int(o.Part) < 0 || int(o.Part) >= n {
			panic(fmt.Sprintf("query: object %d in invalid partition %d", o.ID, o.Part))
		}
		s.buckets[o.Part] = append(s.buckets[o.Part], int32(i))
		s.refs[i] = sp.Ref(o.Part, o.Loc)
	}
	return s
}

// Len returns the number of stored objects (0 for a nil store).
func (s *ObjectStore) Len() int {
	if s == nil {
		return 0
	}
	return len(s.objs)
}

// Bucket returns the indexes (into the store) of the objects hosted by
// partition v. Callers must not modify the returned slice.
func (s *ObjectStore) Bucket(v indoor.PartitionID) []int32 {
	return s.buckets[v]
}

// At returns the object at store index i.
func (s *ObjectStore) At(i int32) *Object { return &s.objs[i] }

// Ref returns the cached point handle of the object at store index i.
func (s *ObjectStore) Ref(i int32) indoor.PointRef { return s.refs[i] }

// DistToDoor returns the intra-partition distance from the object at store
// index i to door d of its host partition.
func (s *ObjectStore) DistToDoor(sp *indoor.Space, i int32, d indoor.DoorID) float64 {
	return sp.RefToDoor(s.refs[i], d)
}

// CollectScan adds to set every object of partition v whose
// intra-partition distance from center is at most radius: the rangeSearch
// helper of the paper's Algorithm 1, at the query point. An object already
// in set is skipped before its distance is computed. This is exact because
// a range answer is a set of ids, so an object's distance matters only
// until it is first accepted.
func (s *ObjectStore) CollectScan(sp *indoor.Space, v indoor.PartitionID, center indoor.Point, radius float64, set *IDSet) {
	bucket := s.buckets[v]
	if len(bucket) == 0 {
		return
	}
	c := sp.Ref(v, center)
	for _, i := range bucket {
		if !set.has(i) && sp.RefDist(c, s.refs[i]) <= radius {
			set.add(i, s.objs[i].ID)
		}
	}
}

// CollectDoor is CollectScan with the scan center at door d of v, using the
// precomputed door-to-vertex geodesics.
func (s *ObjectStore) CollectDoor(sp *indoor.Space, v indoor.PartitionID, d indoor.DoorID, radius float64, set *IDSet) {
	for _, i := range s.buckets[v] {
		if !set.has(i) && sp.RefToDoor(s.refs[i], d) <= radius {
			set.add(i, s.objs[i].ID)
		}
	}
}

// SizeBytes returns the resident size of the buckets and hashtable.
func (s *ObjectStore) SizeBytes() int64 {
	sz := int64(len(s.objs)) * 32
	for _, b := range s.buckets {
		sz += int64(len(b)) * 4
	}
	sz += int64(len(s.buckets)) * 24
	return sz
}

// Insert adds a new object to the store (the moving-objects extension of
// Sec. 7: buckets are dynamic). It returns false when the id is already
// present.
func (s *ObjectStore) Insert(sp *indoor.Space, o Object) bool {
	if s.find(o.ID) >= 0 {
		return false
	}
	if int(o.Part) < 0 || int(o.Part) >= len(s.buckets) {
		return false
	}
	i := int32(len(s.objs))
	s.objs = append(s.objs, o)
	s.refs = append(s.refs, sp.Ref(o.Part, o.Loc))
	s.buckets[o.Part] = append(s.buckets[o.Part], i)
	return true
}

// Delete removes the object with the given id, reporting whether it was
// present. Store indexes of other objects are preserved.
func (s *ObjectStore) Delete(id int32) bool {
	i := s.find(id)
	if i < 0 {
		return false
	}
	s.unbucket(i)
	// Tombstone: keep the slot so indexes remain stable, but park it in no
	// bucket with an invalid partition.
	s.objs[i].Part = indoor.NoPartition
	return true
}

// Move relocates the object with the given id, rebucketing it when it
// crossed into another partition. It reports whether the object exists.
func (s *ObjectStore) Move(sp *indoor.Space, id int32, loc indoor.Point, part indoor.PartitionID) bool {
	i := s.find(id)
	if i < 0 || int(part) < 0 || int(part) >= len(s.buckets) {
		return false
	}
	if s.objs[i].Part != part {
		s.unbucket(i)
		s.buckets[part] = append(s.buckets[part], i)
	}
	s.objs[i].Loc = loc
	s.objs[i].Part = part
	s.refs[i] = sp.Ref(part, loc)
	return true
}

// find returns the store index of the live object with the given id, or -1.
func (s *ObjectStore) find(id int32) int32 {
	for i := range s.objs {
		if s.objs[i].ID == id && s.objs[i].Part != indoor.NoPartition {
			return int32(i)
		}
	}
	return -1
}

// unbucket removes store index i from its current bucket.
func (s *ObjectStore) unbucket(i int32) {
	part := s.objs[i].Part
	if int(part) < 0 || int(part) >= len(s.buckets) {
		return
	}
	b := s.buckets[part]
	for j, x := range b {
		if x == i {
			s.buckets[part] = append(b[:j], b[j+1:]...)
			return
		}
	}
}
