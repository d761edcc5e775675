package doorgraph

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"indoorsq/internal/testspaces"
)

// TestBuildDeterministicAcrossGOMAXPROCS asserts the parallel edge derivation yields
// byte-identical CSR arrays regardless of GOMAXPROCS.
func TestBuildDeterministicAcrossGOMAXPROCS(t *testing.T) {
	sp := testspaces.RandomGrid(7, 4, 5, 2, 7, 0.25)
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	ref := Build(sp)
	for _, w := range []int{2, 4, 8} {
		runtime.GOMAXPROCS(w)
		g := Build(sp)
		if !reflect.DeepEqual(ref.fwd, g.fwd) {
			t.Fatalf("Fwd CSR differs at workers=%d", w)
		}
		if !reflect.DeepEqual(ref.rev, g.rev) {
			t.Fatalf("Rev CSR differs at workers=%d", w)
		}
	}
}

// TestScratchReuseMatchesFresh asserts a reused scratch (epoch reset)
// produces the same sweep as a fresh one.
func TestScratchReuseMatchesFresh(t *testing.T) {
	sp := testspaces.RandomGrid(5, 4, 4, 2, 6, 0.3)
	g := Build(sp)
	reused := g.AcquireScratch()
	defer g.ReleaseScratch(reused)
	for src := int32(0); src < int32(g.N); src += 2 {
		for _, reverse := range []bool{false, true} {
			reused.Run(g, src, reverse)
			fresh := NewScratch(g.N)
			fresh.Run(g, src, reverse)
			for d := 0; d < g.N; d++ {
				if rd, fd := reused.DistAt(d), fresh.DistAt(d); rd != fd &&
					!(math.IsInf(rd, 1) && math.IsInf(fd, 1)) {
					t.Fatalf("src %d rev %v: dist[%d] reused %g fresh %g", src, reverse, d, rd, fd)
				}
				if reused.PrevAt(d) != fresh.PrevAt(d) {
					t.Fatalf("src %d rev %v: prev[%d] reused %d fresh %d",
						src, reverse, d, reused.PrevAt(d), fresh.PrevAt(d))
				}
				if reused.FirstAt(d) != fresh.FirstAt(d) {
					t.Fatalf("src %d rev %v: first[%d] reused %d fresh %d",
						src, reverse, d, reused.FirstAt(d), fresh.FirstAt(d))
				}
			}
		}
	}
}

// TestSettleOrder asserts that a full sweep lists every reached door
// exactly once in SettleOrder, at nondecreasing distance, and that
// recording the order allocates nothing.
func TestSettleOrder(t *testing.T) {
	sp := testspaces.RandomGrid(8, 4, 4, 2, 6, 0.5)
	g := Build(sp)
	s := NewScratch(g.N)
	for src := int32(0); src < int32(g.N); src++ {
		for _, reverse := range []bool{false, true} {
			s.Run(g, src, reverse)
			order := s.SettleOrder()
			seen := make([]bool, g.N)
			for i, d := range order {
				if seen[d] {
					t.Fatalf("src %d rev %v: door %d settled twice", src, reverse, d)
				}
				seen[d] = true
				if i > 0 && s.DistAt(int(d)) < s.DistAt(int(order[i-1])) {
					t.Fatalf("src %d rev %v: settle order falls at %d", src, reverse, i)
				}
			}
			for d := 0; d < g.N; d++ {
				if seen[d] == math.IsInf(s.DistAt(d), 1) {
					t.Fatalf("src %d rev %v: door %d settled=%v at dist %g", src, reverse, d, seen[d], s.DistAt(d))
				}
			}
		}
	}
	if a := testing.AllocsPerRun(20, func() { s.Run(g, 0, false) }); a != 0 {
		t.Fatalf("Run allocates %v objects per sweep, want 0", a)
	}
}

// TestFirstHopConsistent asserts FirstAt matches the first step of the prev
// chain walked back from each reachable door.
func TestFirstHopConsistent(t *testing.T) {
	sp := testspaces.RandomGrid(4, 4, 4, 2, 6, 0.3)
	g := Build(sp)
	s := g.AcquireScratch()
	defer g.ReleaseScratch(s)
	src := int32(0)
	s.Run(g, src, false)
	for d := 0; d < g.N; d++ {
		if math.IsInf(s.DistAt(d), 1) {
			if s.FirstAt(d) != -1 {
				t.Fatalf("unreachable door %d has first hop %d", d, s.FirstAt(d))
			}
			continue
		}
		// Walk prev pointers from d back to the door right after src.
		cur := int32(d)
		for cur != src && s.PrevAt(int(cur)) != src {
			cur = s.PrevAt(int(cur))
		}
		want := cur // src itself when d == src
		if got := s.FirstAt(d); got != want {
			t.Fatalf("door %d: first hop %d, prev chain says %d", d, got, want)
		}
	}
}

// TestSizeBytesCoversEdgePayload sanity-checks the CSR accounting against
// the accessor-visible edge count.
func TestSizeBytesCoversEdgePayload(t *testing.T) {
	f := testspaces.NewStrip()
	g := Build(f.Space)
	edges := 0
	for i := 0; i < g.N; i++ {
		fTo, _ := g.FwdRow(i)
		rTo, _ := g.RevRow(i)
		edges += len(fTo) + len(rTo)
	}
	if edges != 2*g.NumEdges() {
		t.Fatalf("row iteration saw %d edges, NumEdges reports %d", edges, g.NumEdges())
	}
	if got := g.SizeBytes(); got < int64(edges)*12 {
		t.Fatalf("SizeBytes %d smaller than edge payload %d", got, edges*12)
	}
}

// BenchmarkDijkstraAlloc measures the legacy copy-out API.
func BenchmarkDijkstraAlloc(b *testing.B) {
	sp := testspaces.RandomGrid(9, 4, 5, 2, 7, 0.25)
	g := Build(sp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Dijkstra(int32(i%g.N), false)
	}
}

// BenchmarkScratchRun measures the pooled zero-alloc sweep.
func BenchmarkScratchRun(b *testing.B) {
	sp := testspaces.RandomGrid(9, 4, 5, 2, 7, 0.25)
	g := Build(sp)
	s := g.AcquireScratch()
	defer g.ReleaseScratch(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(g, int32(i%g.N), false)
	}
}
