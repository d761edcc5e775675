package uncertain_test

import (
	"context"
	"math"
	"testing"

	"indoorsq/internal/cindex"
	"indoorsq/internal/geom"
	"indoorsq/internal/indoor"
	"indoorsq/internal/query"
	"indoorsq/internal/testspaces"
	"indoorsq/internal/uncertain"
)

func newIndex(f *testspaces.Strip, objs []uncertain.Object, samples int) *uncertain.Index {
	return uncertain.New(cindex.New(f.Space), f.Space, objs, samples)
}

func TestProbRangeCertainObject(t *testing.T) {
	f := testspaces.NewStrip()
	// Zero radius: behaves like a certain point object.
	x := newIndex(f, []uncertain.Object{
		{ID: 1, Center: indoor.At(2.5, 9, 0), Radius: 0, Part: f.R1},
	}, 13)
	p := indoor.At(2.5, 8, 0)
	res, err := x.ProbRange(context.Background(), p, 1.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != 1 || res[0].Value != 1 {
		t.Fatalf("ProbRange = %v", res)
	}
	// Out of range: empty.
	res, err = x.ProbRange(context.Background(), p, 0.5, 0.5)
	if err != nil || len(res) != 0 {
		t.Fatalf("ProbRange tight = %v, %v", res, err)
	}
}

func TestProbRangePartialOverlap(t *testing.T) {
	f := testspaces.NewStrip()
	// Uncertainty disk radius 2 around (2.5, 8) in R1; query from the same
	// partition with a radius splitting the disk.
	x := newIndex(f, []uncertain.Object{
		{ID: 1, Center: indoor.At(2.5, 8, 0), Radius: 2, Part: f.R1},
	}, 13)
	p := indoor.At(2.5, 6.5, 0) // inside R1, below the center
	// r = 2.0: center (1.5 away) and the near half of the disk qualify.
	res, err := x.ProbRange(context.Background(), p, 2.0, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("ProbRange = %v", res)
	}
	if res[0].Value <= 0 || res[0].Value >= 1 {
		t.Fatalf("partial overlap should give 0 < prob < 1, got %g", res[0].Value)
	}
	// Higher tau filters it out.
	res, _ = x.ProbRange(context.Background(), p, 2.0, 0.99)
	if len(res) != 0 {
		t.Fatalf("tau filter failed: %v", res)
	}
}

func TestProbRangeClipsToPartition(t *testing.T) {
	f := testspaces.NewStrip()
	// Object hugging R1's wall: samples beyond the wall are discarded, so
	// the distribution mass stays inside R1.
	x := newIndex(f, []uncertain.Object{
		{ID: 1, Center: indoor.At(0.5, 9.5, 0), Radius: 3, Part: f.R1},
	}, 13)
	// From the hall: every surviving sample needs the door D1.
	p := indoor.At(2.5, 5, 0)
	res, err := x.ProbRange(context.Background(), p, 8, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("clipped object missing: %v", res)
	}
}

func TestExpectedKNNOrdering(t *testing.T) {
	f := testspaces.NewStrip()
	x := newIndex(f, []uncertain.Object{
		{ID: 1, Center: indoor.At(2.5, 9, 0), Radius: 0.5, Part: f.R1},
		{ID: 2, Center: indoor.At(7.5, 9, 0), Radius: 0.5, Part: f.R2},
		{ID: 3, Center: indoor.At(17.5, 9, 0), Radius: 0.5, Part: f.R4},
	}, 9)
	p := indoor.At(2.5, 8, 0)
	res, err := x.ExpectedKNN(context.Background(), p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].ID != 1 || res[1].ID != 2 {
		t.Fatalf("ExpectedKNN = %v", res)
	}
	if res[0].Value >= res[1].Value {
		t.Fatalf("expected distances not increasing: %v", res)
	}
	// Expected distance of the nearest is close to the center distance.
	if math.Abs(res[0].Value-1) > 0.6 {
		t.Fatalf("expected dist %g too far from 1", res[0].Value)
	}
}

func TestUncertainUnreachableExcluded(t *testing.T) {
	// An object in an exit-only room never qualifies from outside.
	b := indoor.NewBuilder("oneway", 1)
	hall := b.AddHallway(0, geom.RectPoly(geom.R(0, 0, 10, 4)))
	room := b.AddRoom(0, geom.RectPoly(geom.R(0, 4, 5, 8)))
	d := b.AddDoor(geom.Pt(2.5, 4), 0)
	b.ConnectOneWay(d, room, hall) // exit-only room
	sp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	x := uncertain.New(cindex.New(sp), sp, []uncertain.Object{
		{ID: 1, Center: indoor.At(2, 6, 0), Radius: 1, Part: room},
	}, 9)
	res, err := x.ProbRange(context.Background(), indoor.At(5, 2, 0), 100, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("unreachable uncertain object returned: %v", res)
	}
	nn, err := x.ExpectedKNN(context.Background(), indoor.At(5, 2, 0), 3)
	if err != nil || len(nn) != 0 {
		t.Fatalf("ExpectedKNN over unreachable = %v, %v", nn, err)
	}
}

func TestUncertainErrors(t *testing.T) {
	f := testspaces.NewStrip()
	x := newIndex(f, nil, 5)
	if _, err := x.ProbRange(context.Background(), indoor.At(-9, -9, 0), 5, 0.5); err != query.ErrNoHost {
		t.Fatalf("err = %v", err)
	}
	if _, err := x.ExpectedKNN(context.Background(), indoor.At(-9, -9, 0), 3); err != query.ErrNoHost {
		t.Fatalf("err = %v", err)
	}
	if res, err := x.ExpectedKNN(context.Background(), indoor.At(2.5, 8, 0), 0); err != nil || res != nil {
		t.Fatalf("k=0 = %v, %v", res, err)
	}
	if x.Len() != 0 {
		t.Fatalf("Len = %d", x.Len())
	}
}
