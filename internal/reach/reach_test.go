package reach

import (
	"math"
	"runtime"
	"testing"

	"indoorsq/internal/doorgraph"
	"indoorsq/internal/geom"
	"indoorsq/internal/indoor"
	"indoorsq/internal/spacegen"
)

// chain builds a four-room space severed by one one-way door:
//
//	y=8 +----+----+
//	    | A2 | B2 |
//	y=4 +-dA-+-dB-+
//	    | A1 > B1 |      dAB at (5,2) allows A1 -> B1 only
//	y=0 +----+----+
//	   x=0   5   10
//
// Door graph: dA -> dAB -> dB, three singleton SCCs. From the B cluster
// nothing in the A cluster is reachable.
type chain struct {
	sp             *indoor.Space
	a1, a2, b1, b2 indoor.PartitionID
	dA, dAB, dB    indoor.DoorID
}

func newChain(t *testing.T) *chain {
	t.Helper()
	b := indoor.NewBuilder("chain", 1)
	rect := func(x0, y0, x1, y1 float64) geom.Polygon {
		return geom.RectPoly(geom.R(x0, y0, x1, y1))
	}
	c := &chain{}
	c.a1 = b.AddRoom(0, rect(0, 0, 5, 4))
	c.a2 = b.AddRoom(0, rect(0, 4, 5, 8))
	c.b1 = b.AddRoom(0, rect(5, 0, 10, 4))
	c.b2 = b.AddRoom(0, rect(5, 4, 10, 8))
	c.dA = b.AddDoor(geom.Pt(2.5, 4), 0)
	b.ConnectBoth(c.dA, c.a1, c.a2)
	c.dAB = b.AddDoor(geom.Pt(5, 2), 0)
	b.ConnectOneWay(c.dAB, c.a1, c.b1)
	c.dB = b.AddDoor(geom.Pt(7.5, 4), 0)
	b.ConnectBoth(c.dB, c.b1, c.b2)
	sp, err := b.Build()
	if err != nil {
		t.Fatalf("build chain: %v", err)
	}
	c.sp = sp
	return c
}

func TestChainCondensation(t *testing.T) {
	c := newChain(t)
	r := FromSpace(c.sp, nil)
	if got := r.NumSCCs(); got != 3 {
		t.Fatalf("NumSCCs = %d, want 3", got)
	}
	if !r.HasParts() {
		t.Fatal("partition bitmap unexpectedly dropped on a 4-partition space")
	}
	// Reverse topological ids: every cross edge descends strictly.
	if !(r.SCCOf(c.dA) > r.SCCOf(c.dAB) && r.SCCOf(c.dAB) > r.SCCOf(c.dB)) {
		t.Fatalf("SCC ids not reverse-topological: dA=%d dAB=%d dB=%d",
			r.SCCOf(c.dA), r.SCCOf(c.dAB), r.SCCOf(c.dB))
	}

	reaches := func(d indoor.DoorID, vs ...indoor.PartitionID) map[indoor.PartitionID]bool {
		m := make(map[indoor.PartitionID]bool)
		for _, v := range vs {
			m[v] = r.DoorReachesPart(d, v)
		}
		return m
	}
	all := []indoor.PartitionID{c.a1, c.a2, c.b1, c.b2}
	for v, got := range reaches(c.dA, all...) {
		if !got {
			t.Errorf("dA should reach partition %d", v)
		}
	}
	wantB := map[indoor.PartitionID]bool{c.a1: false, c.a2: false, c.b1: true, c.b2: true}
	for _, d := range []indoor.DoorID{c.dAB, c.dB} {
		for v, want := range wantB {
			if got := r.DoorReachesPart(d, v); got != want {
				t.Errorf("DoorReachesPart(%d, %d) = %t, want %t", d, v, got, want)
			}
		}
	}

	mbr, ok := r.DownstreamMBR(c.dB)
	if !ok || mbr != geom.R(5, 0, 10, 8) {
		t.Errorf("DownstreamMBR(dB) = %v %t, want [5 0 10 8] true", mbr, ok)
	}
	mbr, ok = r.DownstreamMBR(c.dA)
	if !ok || mbr != geom.R(0, 0, 10, 8) {
		t.Errorf("DownstreamMBR(dA) = %v %t, want [0 0 10 8] true", mbr, ok)
	}
}

func TestOpenFilterExcludesDoors(t *testing.T) {
	c := newChain(t)
	r := FromSpace(c.sp, func(d indoor.DoorID) bool { return d != c.dAB })
	if got := r.SCCOf(c.dAB); got != -1 {
		t.Fatalf("closed door SCC = %d, want -1", got)
	}
	if got := r.NumSCCs(); got != 2 {
		t.Fatalf("NumSCCs = %d, want 2", got)
	}
	if r.DoorReachesPart(c.dAB, c.b1) {
		t.Error("closed door should reach nothing")
	}
	if r.DoorReachesPart(c.dA, c.b1) {
		t.Error("with the crossing closed, dA must not reach the B cluster")
	}
	if !r.DoorReachesPart(c.dA, c.a2) || !r.DoorReachesPart(c.dB, c.b2) {
		t.Error("intra-cluster reachability must survive the filter")
	}
}

func TestMBRPrune(t *testing.T) {
	c := newChain(t)
	r := FromSpace(c.sp, nil)
	p := indoor.At(1, 2, 0) // inside A1, 4m west of the B cluster
	if !r.MBRPrune(c.dB, p, 3.9) {
		t.Error("dB's downstream region is 4m away; limit 3.9 should prune")
	}
	if r.MBRPrune(c.dB, p, 4) {
		t.Error("strict >: limit exactly 4 must not prune")
	}
	if r.MBRPrune(c.dB, p, math.Inf(1)) {
		t.Error("an infinite limit must never prune")
	}
	if r.MBRPrune(c.dA, p, 3.9) {
		t.Error("dA's downstream region contains p's own partition")
	}
	// A point on a floor the summary does not wholly cover is never pruned.
	off := indoor.At(1, 2, 1)
	if r.MBRPrune(c.dB, off, 0.1) {
		t.Error("cross-floor prune must stay conservative")
	}
}

func TestBudgetFallback(t *testing.T) {
	old := partsBudget
	partsBudget = 0
	defer func() { partsBudget = old }()

	c := newChain(t)
	r := FromSpace(c.sp, nil)
	if r.HasParts() {
		t.Fatal("bitmap should be dropped at zero budget")
	}
	if !r.DoorReachesPart(c.dB, c.a1) {
		t.Error("without the bitmap DoorReachesPart must answer true")
	}
	f := r.FromDoors([]indoor.DoorID{c.dB}, nil)
	if !f.CanReachPart(c.a1) || !f.AnyPart([]indoor.PartitionID{c.a1}) {
		t.Error("an undecided From must answer true")
	}
	// MBR summaries survive the fallback.
	if !r.MBRPrune(c.dB, indoor.At(1, 2, 0), 3.9) {
		t.Error("MBR pruning should still work without the bitmap")
	}
}

func TestFromDoors(t *testing.T) {
	c := newChain(t)
	r := FromSpace(c.sp, nil)

	f := r.FromDoors([]indoor.DoorID{c.dB}, nil)
	if f.CanReachPart(c.a1) {
		t.Error("seeds {dB} must not reach the A cluster")
	}
	if !f.CanReachPart(c.b2) {
		t.Error("seeds {dB} must reach B2")
	}
	if f.AnyPart([]indoor.PartitionID{c.a1, c.a2}) {
		t.Error("AnyPart over the A cluster should be false")
	}
	if !f.AnyPart([]indoor.PartitionID{c.a1, c.b1}) {
		t.Error("AnyPart with one reachable member should be true")
	}

	// A usable filter that rejects every seed leaves nothing reachable.
	f = r.FromDoors([]indoor.DoorID{c.dB}, func(indoor.DoorID) bool { return false })
	if f.CanReachPart(c.b1) {
		t.Error("no usable seeds: nothing is door-reachable")
	}

	// A nil summary must stay conservative.
	var nilReach *Reach
	f = nilReach.FromDoors([]indoor.DoorID{c.dB}, nil)
	if !f.CanReachPart(c.a1) {
		t.Error("From over a nil Reach must answer true")
	}
}

func genParams() spacegen.Params {
	return spacegen.Params{
		Floors: 2, Rows: 6, Cols: 10, Hall: spacegen.HallComb,
		ExtraDoors: 8, OneWayFrac: 0.6, Imbalance: 0.4, StairLength: 5,
	}
}

// TestWorkerDeterminism pins the byte-identical-for-any-GOMAXPROCS
// contract of both builders.
func TestWorkerDeterminism(t *testing.T) {
	sp, err := spacegen.Generate(7, genParams())
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	ref := FromSpace(sp, nil)
	dg := doorgraph.Build(sp)
	refG := FromGraph(dg, sp)
	for _, workers := range []int{2, 3, 8} {
		runtime.GOMAXPROCS(workers)
		for name, pair := range map[string][2]*Reach{
			"FromSpace": {ref, FromSpace(sp, nil)},
			"FromGraph": {refG, FromGraph(dg, sp)},
		} {
			a, b := pair[0], pair[1]
			if a.numSCC != b.numSCC {
				t.Fatalf("%s workers=%d: numSCC %d != %d", name, workers, b.numSCC, a.numSCC)
			}
			for i := range a.scc {
				if a.scc[i] != b.scc[i] {
					t.Fatalf("%s workers=%d: scc[%d] differs", name, workers, i)
				}
			}
			for c := range a.mbr {
				if a.mbr[c] != b.mbr[c] || a.hasGeom[c] != b.hasGeom[c] ||
					a.floorLo[c] != b.floorLo[c] || a.floorHi[c] != b.floorHi[c] {
					t.Fatalf("%s workers=%d: summary of SCC %d differs", name, workers, c)
				}
			}
			if len(a.parts) != len(b.parts) {
				t.Fatalf("%s workers=%d: bitmap length differs", name, workers)
			}
			for i := range a.parts {
				if a.parts[i] != b.parts[i] {
					t.Fatalf("%s workers=%d: bitmap word %d differs", name, workers, i)
				}
			}
		}
	}
}

// TestAgainstBruteForce checks DoorReachesPart exactly against a per-door
// BFS over the same topological edge set, and that SCC ids are reverse
// topological, on a generated one-way-heavy venue.
func TestAgainstBruteForce(t *testing.T) {
	sp, err := spacegen.Generate(11, genParams())
	if err != nil {
		t.Fatal(err)
	}
	r := FromSpace(sp, nil)
	if !r.HasParts() {
		t.Fatal("bitmap expected on this venue size")
	}

	n := sp.NumDoors()
	adj := make([][]int32, n)
	for d := 0; d < n; d++ {
		for _, v := range sp.Door(indoor.DoorID(d)).Enterable {
			for _, nd := range sp.Partition(v).Leave {
				if int(nd) != d {
					adj[d] = append(adj[d], int32(nd))
				}
			}
		}
	}
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	queue := make([]int32, 0, n)
	for d := 0; d < n; d++ {
		// BFS door-reachability from d (d included).
		queue = append(queue[:0], int32(d))
		mark[d] = d
		truth := make([]bool, sp.NumPartitions())
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range sp.Door(indoor.DoorID(u)).Enterable {
				truth[v] = true
			}
			for _, w := range adj[u] {
				if mark[w] != d {
					mark[w] = d
					queue = append(queue, w)
				}
				if s := r.SCCOf(indoor.DoorID(w)); s > r.SCCOf(indoor.DoorID(u)) &&
					r.SCCOf(indoor.DoorID(u)) >= 0 {
					t.Fatalf("edge %d->%d ascends SCC ids %d->%d", u, w,
						r.SCCOf(indoor.DoorID(u)), s)
				}
			}
		}
		for v := range truth {
			if got := r.DoorReachesPart(indoor.DoorID(d), indoor.PartitionID(v)); got != truth[v] {
				t.Fatalf("DoorReachesPart(%d, %d) = %t, BFS says %t", d, v, got, truth[v])
			}
		}
	}
}

func BenchmarkFromSpace(b *testing.B) {
	sp, err := spacegen.Generate(3, spacegen.Params{
		Floors: 1, Rows: 24, Cols: 48, Hall: spacegen.HallStraight,
		ExtraDoors: 10, OneWayFrac: 0.25,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromSpace(sp, nil)
	}
}
