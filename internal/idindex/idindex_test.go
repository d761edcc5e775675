package idindex_test

import (
	"math"
	"testing"

	"indoorsq/internal/enginetest"
	"indoorsq/internal/idindex"
	"indoorsq/internal/indoor"
	"indoorsq/internal/query"
	"indoorsq/internal/testspaces"
)

func TestConformance(t *testing.T) {
	enginetest.Run(t, func(sp *indoor.Space) query.Engine {
		return idindex.New(sp)
	})
}

func TestDoorDistMatrix(t *testing.T) {
	f := testspaces.NewStrip()
	ix := idindex.New(f.Space)

	// D1 -> D4 straight through the hall.
	if d := ix.DoorDist(f.D1, f.D4); math.Abs(d-15) > 1e-9 {
		t.Fatalf("DoorDist(D1,D4) = %g, want 15", d)
	}
	if d := ix.DoorDist(f.D1, f.D1); d != 0 {
		t.Fatalf("DoorDist(D1,D1) = %g, want 0", d)
	}
	// Asymmetry via the one-way D8: reaching D8 requires entering R6.
	// D6 -> D8 goes into R6: dist((7.5,4),(10,2)) = sqrt(10.25).
	want := math.Sqrt(10.25)
	if d := ix.DoorDist(f.D6, f.D8); math.Abs(d-want) > 1e-9 {
		t.Fatalf("DoorDist(D6,D8) = %g, want %g", d, want)
	}
	// D8 -> D6 must go through R7 and the hall: D8->D7 in R7 + D7->D6 in hall.
	wantBack := math.Sqrt(25+4) + 7.5
	if d := ix.DoorDist(f.D8, f.D6); math.Abs(d-wantBack) > 1e-9 {
		t.Fatalf("DoorDist(D8,D6) = %g, want %g", d, wantBack)
	}
}

func TestMidxRowsAreSortedPermutations(t *testing.T) {
	sp := testspaces.RandomGrid(3, 4, 4, 2, 6, 0.2)
	ix := idindex.New(sp)
	n := sp.NumDoors()
	for src := 0; src < n; src++ {
		seen := make([]bool, n)
		prev := math.Inf(-1)
		for k := 0; k < n; k++ {
			d := ix.NthNearest(indoor.DoorID(src), k)
			if seen[d] {
				t.Fatalf("row %d: door %d repeated", src, d)
			}
			seen[d] = true
			dist := ix.DoorDist(indoor.DoorID(src), d)
			if !math.IsInf(dist, 1) && dist < prev {
				t.Fatalf("row %d: distances not sorted at k=%d", src, k)
			}
			if !math.IsInf(dist, 1) {
				prev = dist
			}
		}
		// Self comes first at distance zero.
		if ix.NthNearest(indoor.DoorID(src), 0) != indoor.DoorID(src) {
			t.Fatalf("row %d: first entry is not self", src)
		}
	}
}

func TestMatrixMatchesIDModelTraversal(t *testing.T) {
	// The precomputed matrix must agree with on-the-fly Dijkstra over the
	// same space for every door pair.
	f := testspaces.NewStrip()
	ix := idindex.New(f.Space)
	var st query.Stats
	ix.SetObjects(nil)
	for di := 0; di < f.Space.NumDoors(); di++ {
		for dj := 0; dj < f.Space.NumDoors(); dj++ {
			d1 := indoor.DoorID(di)
			d2 := indoor.DoorID(dj)
			want := ix.DoorDist(d1, d2)
			p := f.Space.DoorPoint(d1)
			q := f.Space.DoorPoint(d2)
			path, err := ix.SPD(p, q, &st)
			if err != nil {
				continue
			}
			// Door points host in an adjacent partition, so the SPD may be
			// shorter than the matrix entry only when direction rules allow
			// skipping; it must never be longer.
			if path.Dist > want+1e-9 {
				t.Fatalf("SPD(%d,%d) = %g exceeds matrix %g", di, dj, path.Dist, want)
			}
		}
	}
}

func TestSPDPathReconstruction(t *testing.T) {
	f := testspaces.NewStrip()
	ix := idindex.New(f.Space)
	ix.SetObjects(nil)
	var st query.Stats
	path, err := ix.SPD(indoor.At(2.5, 8, 0), indoor.At(17.5, 8, 0), &st)
	if err != nil {
		t.Fatal(err)
	}
	if len(path.Doors) != 2 || path.Doors[0] != f.D1 || path.Doors[1] != f.D4 {
		t.Fatalf("path doors = %v, want [D1 D4]", path.Doors)
	}
	// Path length equals the sum of its hops.
	sum := f.Space.WithinPointDoor(f.R1, indoor.At(2.5, 8, 0), f.D1) +
		ix.DoorDist(f.D1, f.D4) +
		f.Space.WithinPointDoor(f.R4, indoor.At(17.5, 8, 0), f.D4)
	if math.Abs(path.Dist-sum) > 1e-9 {
		t.Fatalf("path dist %g != hop sum %g", path.Dist, sum)
	}
}

func TestSizeDominatedByMatrices(t *testing.T) {
	sp := testspaces.RandomGrid(7, 5, 5, 2, 8, 0)
	ix := idindex.New(sp)
	n := int64(sp.NumDoors())
	if ix.SizeBytes() < n*n*16 {
		t.Fatalf("size %d smaller than matrix lower bound %d", ix.SizeBytes(), n*n*16)
	}
}

// TestCompactMatchesWide compares the compact engine's answers against the
// full-precision engine within float32 tolerance (the compact variant trades
// ~1e-7 relative distance error for half the matrix memory, so the exact
// conformance suite does not apply).
func TestCompactMatchesWide(t *testing.T) {
	sp := testspaces.RandomGrid(13, 4, 5, 2, 7, 0.2)
	wide := idindex.New(sp)
	narrow := idindex.NewCompact(sp)
	objs := make([]query.Object, 0, 20)
	for i := 0; i < sp.NumPartitions() && len(objs) < 20; i += 2 {
		v := sp.Partition(indoor.PartitionID(i))
		if v.Kind == indoor.Staircase {
			continue
		}
		c := v.MBR.Center()
		objs = append(objs, query.Object{ID: int32(len(objs)), Loc: indoor.At(c.X, c.Y, v.Floor), Part: v.ID})
	}
	wide.SetObjects(objs)
	narrow.SetObjects(objs)
	var st query.Stats
	pts := []indoor.Point{indoor.At(5, 5, 0), indoor.At(35, 25, 0), indoor.At(15, 35, 1)}
	for _, p := range pts {
		a, err1 := wide.KNN(p, 5, &st)
		b, err2 := narrow.KNN(p, 5, &st)
		if (err1 == nil) != (err2 == nil) || len(a) != len(b) {
			t.Fatalf("KNN shape mismatch at %v", p)
		}
		for i := range a {
			if math.Abs(a[i].Dist-b[i].Dist) > 1e-4*(1+a[i].Dist) {
				t.Fatalf("KNN dist mismatch at %v: %g vs %g", p, a[i].Dist, b[i].Dist)
			}
		}
		for _, q := range pts {
			pa, err1 := wide.SPD(p, q, &st)
			pb, err2 := narrow.SPD(p, q, &st)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("SPD err mismatch at %v->%v", p, q)
			}
			if err1 == nil && math.Abs(pa.Dist-pb.Dist) > 1e-4*(1+pa.Dist) {
				t.Fatalf("SPD mismatch at %v->%v: %g vs %g", p, q, pa.Dist, pb.Dist)
			}
		}
	}
}

func TestCompactHalvesMatrixMemory(t *testing.T) {
	sp := testspaces.RandomGrid(7, 5, 5, 2, 8, 0)
	wide := idindex.New(sp)
	narrow := idindex.NewCompact(sp)
	if narrow.SizeBytes() >= wide.SizeBytes() {
		t.Fatalf("compact %d should be below wide %d", narrow.SizeBytes(), wide.SizeBytes())
	}
	// Distances agree within float32 precision.
	for d1 := 0; d1 < sp.NumDoors(); d1 += 5 {
		for d2 := 0; d2 < sp.NumDoors(); d2 += 7 {
			a := wide.DoorDist(indoor.DoorID(d1), indoor.DoorID(d2))
			b := narrow.DoorDist(indoor.DoorID(d1), indoor.DoorID(d2))
			if math.IsInf(a, 1) != math.IsInf(b, 1) {
				t.Fatalf("infinity mismatch at (%d,%d)", d1, d2)
			}
			if !math.IsInf(a, 1) && math.Abs(a-b) > 1e-4*(1+a) {
				t.Fatalf("distance mismatch at (%d,%d): %g vs %g", d1, d2, a, b)
			}
		}
	}
}
