package doorgraph

import (
	"math"
	"testing"

	"indoorsq/internal/indoor"
	"indoorsq/internal/testspaces"
)

func TestBuildStrip(t *testing.T) {
	f := testspaces.NewStrip()
	g := Build(f.Space)
	if g.N != f.Space.NumDoors() {
		t.Fatalf("N = %d, want %d", g.N, f.Space.NumDoors())
	}
	// D1 enters the hall and R1; from the hall every other hall door is
	// reachable in one hop: 6 hall doors + 0 from R1 (its only door is D1).
	if to, _ := g.FwdRow(int(f.D1)); len(to) != 6 {
		t.Fatalf("fwd(D1) = %d edges, want 6", len(to))
	}
	// One-way D8 has forward edges only out of R7.
	d8To, _ := g.FwdRow(int(f.D8))
	for _, to := range d8To {
		if indoor.DoorID(to) == f.D8 {
			t.Fatal("self edge")
		}
	}
	// D8 is reachable only by entering R6: only D6 has an edge to D8.
	var into []int32
	for d := 0; d < g.N; d++ {
		to, _ := g.FwdRow(d)
		for _, t := range to {
			if indoor.DoorID(t) == f.D8 {
				into = append(into, int32(d))
			}
		}
	}
	if len(into) != 1 || indoor.DoorID(into[0]) != f.D6 {
		t.Fatalf("edges into D8 from %v, want [D6]", into)
	}
	// The reverse rows must mirror the same edge set.
	revTo, _ := g.RevRow(int(f.D8))
	if len(revTo) != 1 || indoor.DoorID(revTo[0]) != f.D6 {
		t.Fatalf("rev(D8) = %v, want [D6]", revTo)
	}
}

func TestDijkstraForwardVsReverse(t *testing.T) {
	sp := testspaces.RandomGrid(3, 4, 4, 2, 6, 0.3)
	g := Build(sp)
	// dist_fwd(a -> b) must equal dist_rev measured from b.
	for a := int32(0); a < int32(g.N); a += 3 {
		fwd, _ := g.Dijkstra(a, false)
		for b := int32(0); b < int32(g.N); b += 5 {
			rev, _ := g.Dijkstra(b, true)
			if math.Abs(fwd[b]-rev[a]) > 1e-9 &&
				!(math.IsInf(fwd[b], 1) && math.IsInf(rev[a], 1)) {
				t.Fatalf("fwd[%d->%d]=%g != rev=%g", a, b, fwd[b], rev[a])
			}
		}
	}
}

func TestDijkstraPrevChainsReachSource(t *testing.T) {
	f := testspaces.NewStrip()
	g := Build(f.Space)
	dist, prev := g.Dijkstra(int32(f.D1), false)
	for d := 0; d < g.N; d++ {
		if math.IsInf(dist[d], 1) {
			if prev[d] != -1 {
				t.Fatalf("unreachable door %d has prev %d", d, prev[d])
			}
			continue
		}
		// Walk predecessors back to the source.
		seen := 0
		for cur := int32(d); cur != int32(f.D1); cur = prev[cur] {
			if prev[cur] < 0 {
				t.Fatalf("door %d: broken prev chain at %d", d, cur)
			}
			if seen++; seen > g.N {
				t.Fatalf("door %d: prev cycle", d)
			}
		}
	}
}

func TestDijkstraTriangle(t *testing.T) {
	sp := testspaces.RandomGrid(9, 3, 5, 1, 4, 0)
	g := Build(sp)
	d0, _ := g.Dijkstra(0, false)
	for m := int32(1); m < int32(g.N); m++ {
		dm, _ := g.Dijkstra(m, false)
		for to := 0; to < g.N; to++ {
			if d0[to] > d0[m]+dm[to]+1e-9 {
				t.Fatalf("triangle violated: 0->%d = %g > 0->%d->%d = %g",
					to, d0[to], m, to, d0[m]+dm[to])
			}
		}
	}
}

// TestSizeBytesExact pins SizeBytes to the exact CSR footprint: two int32
// offset arrays of N+1 entries and, per direction, 12 bytes per edge.
func TestSizeBytesExact(t *testing.T) {
	g := Build(testspaces.NewStrip().Space)
	m := int64(g.NumEdges())
	want := 2*int64(g.N+1)*4 + 2*m*(4+8)
	if got := g.SizeBytes(); got != want {
		t.Fatalf("SizeBytes = %d, want exact CSR footprint %d (N=%d, edges=%d)",
			got, want, g.N, m)
	}
	if m <= 0 {
		t.Fatal("strip space must have edges")
	}
}

// TestBuildPublishesMetrics asserts Build records the last-built
// graph's footprint in the process-wide gauges.
func TestBuildPublishesMetrics(t *testing.T) {
	g := Build(testspaces.NewStrip().Space)
	if got := Metrics.Doors.Load(); got != int64(g.N) {
		t.Fatalf("Metrics.Doors = %d, want %d", got, g.N)
	}
	if got := Metrics.Edges.Load(); got != int64(g.NumEdges()) {
		t.Fatalf("Metrics.Edges = %d, want %d", got, g.NumEdges())
	}
	if got := Metrics.Bytes.Load(); got != g.SizeBytes() {
		t.Fatalf("Metrics.Bytes = %d, want %d", got, g.SizeBytes())
	}
}
