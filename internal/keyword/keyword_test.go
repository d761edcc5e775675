package keyword_test

import (
	"context"
	"math"
	"testing"

	"indoorsq/internal/idmodel"
	"indoorsq/internal/indoor"
	"indoorsq/internal/keyword"
	"indoorsq/internal/query"
	"indoorsq/internal/testspaces"
)

// tagged places keyworded objects on the Strip fixture:
//
//	o1 "coffee"        @ (2.5,9)  in R1  (dist 1 from p)
//	o2 "coffee","wifi" @ (7.5,9)  in R2  (dist 10)
//	o3 "atm"           @ (1,5)    in Hall (dist ~3.80)
//	o4 "pizza"         @ (17.5,9) in R4  (dist 20)
func tagged(f *testspaces.Strip) []keyword.Tagged {
	return []keyword.Tagged{
		{Object: query.Object{ID: 1, Loc: indoor.At(2.5, 9, 0), Part: f.R1}, Words: []string{"coffee"}},
		{Object: query.Object{ID: 2, Loc: indoor.At(7.5, 9, 0), Part: f.R2}, Words: []string{"coffee", "wifi"}},
		{Object: query.Object{ID: 3, Loc: indoor.At(1, 5, 0), Part: f.Hall}, Words: []string{"atm"}},
		{Object: query.Object{ID: 4, Loc: indoor.At(17.5, 9, 0), Part: f.R4}, Words: []string{"pizza"}},
	}
}

var p = indoor.At(2.5, 8, 0) // in R1

func newIndex(f *testspaces.Strip) *keyword.Index {
	return keyword.New(idmodel.New(f.Space), f.Space, tagged(f))
}

func TestVocabAndInverted(t *testing.T) {
	f := testspaces.NewStrip()
	x := newIndex(f)
	if x.Vocab() != 4 {
		t.Fatalf("Vocab = %d, want 4", x.Vocab())
	}
	if got := x.ObjectsWith("coffee"); len(got) != 2 {
		t.Fatalf("coffee objects = %v", got)
	}
	if got := x.ObjectsWith("tea"); got != nil {
		t.Fatalf("unknown word objects = %v", got)
	}
}

func TestBooleanKNN(t *testing.T) {
	f := testspaces.NewStrip()
	x := newIndex(f)
	var st query.Stats

	// Nearest coffee: o1.
	nn, err := x.BooleanKNN(context.Background(), p, 1, &st, "coffee")
	if err != nil || len(nn) != 1 || nn[0].ID != 1 {
		t.Fatalf("BooleanKNN coffee = %v, %v", nn, err)
	}
	// Nearest coffee AND wifi: o2, although o1 is nearer.
	nn, err = x.BooleanKNN(context.Background(), p, 1, &st, "coffee", "wifi")
	if err != nil || len(nn) != 1 || nn[0].ID != 2 {
		t.Fatalf("BooleanKNN coffee+wifi = %v, %v", nn, err)
	}
	if math.Abs(nn[0].Dist-10) > 1e-9 {
		t.Fatalf("dist = %g, want 10", nn[0].Dist)
	}
	// Unknown word: no results.
	nn, err = x.BooleanKNN(context.Background(), p, 3, &st, "sushi")
	if err != nil || len(nn) != 0 {
		t.Fatalf("BooleanKNN unknown = %v, %v", nn, err)
	}
	// No words: plain kNN.
	nn, err = x.BooleanKNN(context.Background(), p, 2, &st)
	if err != nil || len(nn) != 2 || nn[0].ID != 1 || nn[1].ID != 3 {
		t.Fatalf("BooleanKNN no-words = %v, %v", nn, err)
	}
}

func TestBooleanRange(t *testing.T) {
	f := testspaces.NewStrip()
	x := newIndex(f)
	var st query.Stats
	ids, err := x.BooleanRange(context.Background(), p, 12, &st, "coffee")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("BooleanRange coffee = %v", ids)
	}
	ids, err = x.BooleanRange(context.Background(), p, 5, &st, "coffee", "wifi")
	if err != nil || len(ids) != 0 {
		t.Fatalf("BooleanRange tight = %v, %v", ids, err)
	}
}

func TestRoutePlain(t *testing.T) {
	// No keywords: Route degenerates to the shortest path.
	f := testspaces.NewStrip()
	x := newIndex(f)
	var st query.Stats
	q := indoor.At(7.5, 9, 0) // in R2
	res, err := x.Route(context.Background(), p, q, &st)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Path.Dist-10) > 1e-9 {
		t.Fatalf("plain route dist = %g, want 10", res.Path.Dist)
	}
	if len(res.Visits) != 0 {
		t.Fatalf("plain route visits %v", res.Visits)
	}
}

func TestRouteWithDetour(t *testing.T) {
	f := testspaces.NewStrip()
	x := newIndex(f)
	var st query.Stats

	// From R5 to R4, covering "atm": o3 sits in the hall near the west end;
	// the optimal walk leaves R5, detours to o3, then crosses to D4 and R4.
	pStart := indoor.At(2.5, 2, 0) // R5
	qEnd := indoor.At(17.5, 9, 0)  // R4
	res, err := x.Route(context.Background(), pStart, qEnd, &st, "atm")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Visits) != 1 || res.Visits[0] != 3 {
		t.Fatalf("route visits = %v, want [3]", res.Visits)
	}
	// Hand-computed: p->D5 = 2, D5 at (2.5,4); D5->o3(1,5) = sqrt(2.25+1);
	// o3->D4(17.5,6) = sqrt(16.5^2+1); D4->q = 3.
	want := 2 + math.Sqrt(3.25) + math.Sqrt(16.5*16.5+1) + 3
	if math.Abs(res.Path.Dist-want) > 1e-9 {
		t.Fatalf("route dist = %g, want %g", res.Path.Dist, want)
	}
	// Without the keyword the route is shorter.
	plain, err := x.Route(context.Background(), pStart, qEnd, &st)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Path.Dist >= res.Path.Dist {
		t.Fatalf("keyword route %g should exceed plain %g", res.Path.Dist, plain.Path.Dist)
	}
}

func TestRouteTwoKeywords(t *testing.T) {
	f := testspaces.NewStrip()
	x := newIndex(f)
	var st query.Stats
	pStart := indoor.At(2.5, 2, 0) // R5
	qEnd := indoor.At(15, 2, 0)    // R7
	res, err := x.Route(context.Background(), pStart, qEnd, &st, "atm", "coffee")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Visits) != 2 {
		t.Fatalf("visits = %v, want two objects", res.Visits)
	}
	// Must include an atm (o3) and a coffee (o1 or o2).
	seen := map[int32]bool{}
	for _, v := range res.Visits {
		seen[v] = true
	}
	if !seen[3] || (!seen[1] && !seen[2]) {
		t.Fatalf("visits = %v must cover atm and coffee", res.Visits)
	}
	// Sanity: covering more keywords cannot be cheaper.
	one, _ := x.Route(context.Background(), pStart, qEnd, &st, "atm")
	if res.Path.Dist < one.Path.Dist-1e-9 {
		t.Fatalf("two-keyword route %g cheaper than one-keyword %g", res.Path.Dist, one.Path.Dist)
	}
}

func TestRouteSamePartitionDirect(t *testing.T) {
	f := testspaces.NewStrip()
	x := newIndex(f)
	var st query.Stats
	a := indoor.At(1, 5, 0)
	b := indoor.At(19, 5, 0)
	res, err := x.Route(context.Background(), a, b, &st)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Path.Dist-18) > 1e-9 || len(res.Path.Doors) != 0 {
		t.Fatalf("direct route = %v", res.Path)
	}
	// Covering "atm" from inside the hall: o3 is in the hall itself.
	res, err = x.Route(context.Background(), a, b, &st, "atm")
	if err != nil {
		t.Fatal(err)
	}
	want := a.XY().Dist(indoor.At(1, 5, 0).XY()) // a == o3? no: o3 at (1,5) == a!
	_ = want
	if math.Abs(res.Path.Dist-18) > 1e-9 {
		t.Fatalf("atm route = %g, want 18 (o3 is at the source)", res.Path.Dist)
	}
	if len(res.Visits) != 1 || res.Visits[0] != 3 {
		t.Fatalf("visits = %v", res.Visits)
	}
}

func TestRouteErrors(t *testing.T) {
	f := testspaces.NewStrip()
	x := newIndex(f)
	var st query.Stats
	if _, err := x.Route(context.Background(), indoor.At(-1, -1, 0), p, &st); err != query.ErrNoHost {
		t.Fatalf("bad source err = %v", err)
	}
	if _, err := x.Route(context.Background(), p, p, &st, "nonexistent"); err != query.ErrUnreachable {
		t.Fatalf("missing keyword err = %v", err)
	}
	many := make([]string, keyword.MaxRouteWords+1)
	for i := range many {
		many[i] = string(rune('a' + i))
	}
	if _, err := x.Route(context.Background(), p, p, &st, many...); err == nil {
		t.Fatal("too many keywords must error")
	}
}

// TestRouteLegSum verifies the route distance decomposes into its legs.
func TestRouteLegSum(t *testing.T) {
	f := testspaces.NewStrip()
	x := newIndex(f)
	var st query.Stats
	res, err := x.Route(context.Background(), indoor.At(2.5, 2, 0), indoor.At(15, 2, 0), &st, "coffee")
	if err != nil {
		t.Fatal(err)
	}
	if res.Path.Dist <= 0 || math.IsInf(res.Path.Dist, 1) {
		t.Fatalf("bad dist %g", res.Path.Dist)
	}
	if len(res.Path.Doors) < 2 {
		t.Fatalf("route doors = %v", res.Path.Doors)
	}
}
