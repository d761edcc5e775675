package idindex_test

import (
	"bytes"
	"math"
	"testing"

	"indoorsq/internal/enginetest"
	"indoorsq/internal/idindex"
	"indoorsq/internal/indoor"
	"indoorsq/internal/query"
	"indoorsq/internal/snapshot"
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

// TestLoadRejectsFloat32Section hand-writes TagIDIndex sections in the
// slot layout AppendTo uses: the float64 form loads, and a float32 distance
// matrix (width flag false, or a non-empty float32 array) is an error.
func TestLoadRejectsFloat32Section(t *testing.T) {
	sp := testspaces.NewStrip().Space
	n := sp.NumDoors()
	ref := idindex.New(sp)
	d2d := make([]float64, n*n)
	d2d32 := make([]float32, n*n)
	idx := make([]int32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d2d[i*n+j] = ref.DoorDist(indoor.DoorID(i), indoor.DoorID(j))
			d2d32[i*n+j] = float32(d2d[i*n+j])
			idx[i*n+j] = int32(ref.NthNearest(indoor.DoorID(i), j))
		}
	}
	load := func(wide bool, f64 []float64, f32 []float32) (*idindex.Index, error) {
		var buf bytes.Buffer
		w := snapshot.NewWriter(&buf, 1)
		sec := w.Begin(snapshot.TagIDIndex)
		sec.U64(uint64(n))
		sec.Bool(wide)
		sec.F64s(f64)
		sec.F32s(f32)
		sec.I32s(idx)
		sec.I32s(make([]int32, n*n))
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := snapshot.NewReader(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return idindex.LoadFrom(r, sp, ref.Reach())
	}
	ix, err := load(true, d2d, nil)
	if err != nil {
		t.Fatalf("float64 section: %v", err)
	}
	if got, want := ix.DoorDist(1, 2), ref.DoorDist(1, 2); got != want {
		t.Fatalf("loaded DoorDist(1,2) = %g, want %g", got, want)
	}
	for _, c := range []struct {
		name string
		wide bool
		f64  []float64
		f32  []float32
	}{
		{"float32 flag", false, nil, d2d32},
		{"float32 flag, empty matrix", false, nil, nil},
		{"float64 flag, float32 matrix", true, nil, d2d32},
		{"both matrices", true, d2d, d2d32},
	} {
		if _, err := load(c.wide, c.f64, c.f32); err == nil {
			t.Fatalf("%s: LoadFrom accepted the section", c.name)
		}
	}
}
