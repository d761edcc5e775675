package enginetest

import (
	"fmt"
	"math/rand"
	"testing"

	"indoorsq/internal/indoor"
	"indoorsq/internal/oracle"
	"indoorsq/internal/query"
	"indoorsq/internal/spacegen"
)

// sharedDoorObjects places objects where a range search reaches them
// through several doors: for every partition with at least three doors, one
// object on each of its doors (hosted by that partition, so it sits on a
// door shared with a neighbour and also at finite distance from the
// partition's other doors) plus two interior objects.
func sharedDoorObjects(sp *indoor.Space, rng *rand.Rand) []query.Object {
	var objs []query.Object
	add := func(p indoor.Point, v indoor.PartitionID) {
		objs = append(objs, query.Object{ID: int32(len(objs)), Loc: p, Part: v})
	}
	for i := range sp.NumPartitions() {
		v := indoor.PartitionID(i)
		part := sp.Partition(v)
		if part.Kind == indoor.Staircase || len(part.Doors) < 3 {
			continue
		}
		for _, d := range part.Doors {
			add(sp.DoorPoint(d), v)
		}
		for n := 0; n < 2; {
			mbr := part.MBR
			p := indoor.At(mbr.MinX+rng.Float64()*mbr.Width(), mbr.MinY+rng.Float64()*mbr.Height(), part.Floor)
			if part.Poly.Contains(p.XY()) {
				add(p, v)
				n++
			}
		}
	}
	return objs
}

// ladderRadii returns the midpoints of up to six well-separated gaps in the
// oracle's sorted distance ladder, plus a radius past the farthest object,
// so no radius sits on a floating-point membership boundary.
func ladderRadii(all []query.Neighbor) []float64 {
	var gaps []float64
	for i := 0; i+1 < len(all); i++ {
		if all[i+1].Dist-all[i].Dist > 1e-6 {
			gaps = append(gaps, (all[i].Dist+all[i+1].Dist)/2)
		}
	}
	var radii []float64
	for j := 0; j < 6 && len(gaps) > 0; j++ {
		radii = append(radii, gaps[j*len(gaps)/6])
	}
	if len(all) > 0 {
		radii = append(radii, all[len(all)-1].Dist+1)
	}
	return radii
}

// TestRangeSharedDoorObjects checks every engine's range answer against
// the oracle on door-rich generated spaces whose objects sit on shared
// doors of many-door partitions. Such an object is collected once but
// reachable through several doors (and from both sides of its own door),
// which is the case the range collectors' skip-once-accepted rule must get
// right.
func TestRangeSharedDoorObjects(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		params := spacegen.Params{
			Floors: 1 + int(seed%2), Rows: 2 + int(seed%2), Cols: 3 + int(seed%3),
			Hall: spacegen.HallKind(seed % 3), ExtraDoors: 10, Decompose: seed%4 == 0,
		}.Normalize()
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			sp, err := spacegen.Generate(seed, params)
			if err != nil {
				t.Fatalf("generate %s: %v", params, err)
			}
			rng := rand.New(rand.NewSource(seed))
			objs := sharedDoorObjects(sp, rng)
			if len(objs) == 0 {
				t.Fatalf("%s: no partition with three or more doors", params)
			}
			ref := oracle.New(sp)
			ref.SetObjects(objs)
			engines := allEngines(sp)
			for _, e := range engines {
				e.SetObjects(objs)
			}
			var st query.Stats
			for trial := 0; trial < 4; trial++ {
				p := randomPoint(sp, rng)
				all, err := ref.AllDists(p)
				if err != nil {
					t.Fatalf("oracle AllDists: %v", err)
				}
				for _, r := range ladderRadii(all) {
					want, err := ref.Range(p, r, nil)
					if err != nil {
						t.Fatalf("oracle Range(r=%g): %v", r, err)
					}
					for _, e := range engines {
						got, err := e.Range(p, r, &st)
						if err != nil || !sameIDs(got, want) {
							t.Fatalf("%s: %s Range(%v, r=%g) = %v (%v), oracle %v",
								params, e.Name(), p, r, got, err, want)
						}
					}
				}
			}
		})
	}
}
