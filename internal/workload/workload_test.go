package workload

import (
	"context"
	"math"
	"testing"

	"indoorsq/internal/idmodel"
	"indoorsq/internal/indoor"
	"indoorsq/internal/query"
	"indoorsq/internal/testspaces"
)

func TestObjectsAreValid(t *testing.T) {
	sp := testspaces.RandomGrid(1, 4, 5, 2, 6, 0.1)
	g := New(sp, 42)
	objs := g.Objects(200)
	if len(objs) != 200 {
		t.Fatalf("got %d objects", len(objs))
	}
	for _, o := range objs {
		host, ok := sp.HostPartition(o.Loc)
		if !ok {
			t.Fatalf("object %d at %v is not indoors", o.ID, o.Loc)
		}
		if host != o.Part {
			t.Fatalf("object %d host mismatch: %d vs %d", o.ID, host, o.Part)
		}
		if sp.Partition(o.Part).Kind == indoor.Staircase {
			t.Fatalf("object %d in a staircase", o.ID)
		}
	}
}

func TestObjectsDeterministic(t *testing.T) {
	sp := testspaces.RandomGrid(1, 3, 3, 1, 3, 0)
	a := New(sp, 7).Objects(50)
	b := New(sp, 7).Objects(50)
	for i := range a {
		if a[i].Loc != b[i].Loc {
			t.Fatal("same seed must give same objects")
		}
	}
	c := New(sp, 8).Objects(50)
	same := true
	for i := range a {
		if a[i].Loc != c[i].Loc {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestPointsAreValid(t *testing.T) {
	sp := testspaces.NewStrip().Space
	g := New(sp, 3)
	for _, p := range g.Points(100) {
		if !sp.Contains(p) {
			t.Fatalf("point %v not indoors", p)
		}
	}
}

func TestSPDPairsApproximateS2T(t *testing.T) {
	sp := testspaces.RandomGrid(5, 6, 6, 2, 10, 0)
	g := New(sp, 11)
	const s2t = 60.0
	pairs, err := g.SPDPairs(context.Background(), s2t, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 10 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	eng := idmodel.New(sp)
	eng.SetObjects(nil)
	var st query.Stats
	okCount := 0
	for _, pr := range pairs {
		path, err := eng.SPD(pr.P, pr.Q, &st)
		if err != nil {
			t.Fatalf("generated pair unreachable: %v", err)
		}
		if math.Abs(path.Dist-pr.Dist) > 1e-6 {
			t.Fatalf("generator distance %g != engine distance %g", pr.Dist, path.Dist)
		}
		if math.Abs(path.Dist-s2t) <= 0.25*s2t {
			okCount++
		}
	}
	if okCount < 7 {
		t.Fatalf("only %d/10 pairs near s2t", okCount)
	}
}

func TestSPDPairsSmallSpace(t *testing.T) {
	// s2t larger than the whole space: best-effort pairs still come back.
	sp := testspaces.NewStrip().Space
	g := New(sp, 2)
	pairs, err := g.SPDPairs(context.Background(), 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 3 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	for _, pr := range pairs {
		if math.IsInf(pr.Dist, 1) || pr.Dist <= 0 {
			t.Fatalf("bad pair dist %g", pr.Dist)
		}
	}
}
