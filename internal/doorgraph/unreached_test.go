package doorgraph

import (
	"math"
	"testing"

	"indoorsq/internal/geom"
	"indoorsq/internal/indoor"
)

// severed builds a four-room space cut by one one-way door (A1 -> B1), so
// sweeps from the B side leave the whole A cluster unreached:
//
//	y=8 +----+----+
//	    | A2 | B2 |
//	y=4 +-dA-+-dB-+
//	    | A1 > B1 |
//	y=0 +----+----+
//	   x=0   5   10
func severed(t *testing.T) (sp *indoor.Space, dA, dAB, dB indoor.DoorID) {
	t.Helper()
	b := indoor.NewBuilder("severed", 1)
	rect := func(x0, y0, x1, y1 float64) geom.Polygon {
		return geom.RectPoly(geom.R(x0, y0, x1, y1))
	}
	a1 := b.AddRoom(0, rect(0, 0, 5, 4))
	a2 := b.AddRoom(0, rect(0, 4, 5, 8))
	b1 := b.AddRoom(0, rect(5, 0, 10, 4))
	b2 := b.AddRoom(0, rect(5, 4, 10, 8))
	dA = b.AddDoor(geom.Pt(2.5, 4), 0)
	b.ConnectBoth(dA, a1, a2)
	dAB = b.AddDoor(geom.Pt(5, 2), 0)
	b.ConnectOneWay(dAB, a1, b1)
	dB = b.AddDoor(geom.Pt(7.5, 4), 0)
	b.ConnectBoth(dB, b1, b2)
	sp, err := b.Build()
	if err != nil {
		t.Fatalf("build severed: %v", err)
	}
	return sp, dA, dAB, dB
}

// TestUnreachedEncoding pins the Dijkstra/CopyDist/CopyPrev contract for
// unreached doors: exactly +Inf distance and -1 predecessor, regardless of
// what the output buffers previously held and regardless of what earlier
// runs of the same (epoch-stamped) scratch touched.
func TestUnreachedEncoding(t *testing.T) {
	sp, dA, dAB, dB := severed(t)
	g := Build(sp)

	// From dB, the one-way cut makes dA and dAB unreached.
	dist, prev := g.Dijkstra(int32(dB), false)
	for _, d := range []indoor.DoorID{dA, dAB} {
		if bits := math.Float64bits(dist[d]); bits != math.Float64bits(math.Inf(1)) {
			t.Errorf("dist[%d] = %x, want exact +Inf", d, bits)
		}
		if prev[d] != -1 {
			t.Errorf("prev[%d] = %d, want -1", d, prev[d])
		}
	}
	if math.IsInf(dist[dB], 1) || prev[dB] != -1 {
		t.Errorf("source: dist=%g prev=%d, want 0 / -1", dist[dB], prev[dB])
	}

	// Poisoned buffers: the copies must overwrite every entry, not just the
	// stamped ones.
	s := g.AcquireScratch()
	defer g.ReleaseScratch(s)
	s.Run(g, int32(dB), false)
	pd := make([]float64, g.N)
	pp := make([]int32, g.N)
	for i := range pd {
		pd[i] = math.NaN()
		pp[i] = 12345
	}
	s.CopyDist(pd)
	s.CopyPrev(pp)
	for d := 0; d < g.N; d++ {
		if math.Float64bits(pd[d]) != math.Float64bits(dist[d]) {
			t.Errorf("CopyDist[%d] = %v, want %v", d, pd[d], dist[d])
		}
		if pp[d] != prev[d] {
			t.Errorf("CopyPrev[%d] = %d, want %d", d, pp[d], prev[d])
		}
	}

	// Epoch reuse: a sweep from dA reaches everything; the next sweep from
	// dB on the same scratch must not leak dA-epoch entries for the doors
	// it leaves unreached.
	s.Run(g, int32(dA), false)
	if math.IsInf(s.DistAt(int(dB)), 1) {
		t.Fatal("dB should be reachable from dA")
	}
	s.Run(g, int32(dB), false)
	for _, d := range []indoor.DoorID{dA, dAB} {
		if !math.IsInf(s.DistAt(int(d)), 1) || s.PrevAt(int(d)) != -1 || s.FirstAt(int(d)) != -1 {
			t.Errorf("stale epoch leaked into door %d: dist=%g prev=%d first=%d",
				d, s.DistAt(int(d)), s.PrevAt(int(d)), s.FirstAt(int(d)))
		}
	}
}
