package route_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"indoorsq/internal/idindex"
	"indoorsq/internal/idmodel"
	"indoorsq/internal/indoor"
	"indoorsq/internal/query"
	"indoorsq/internal/route"
	"indoorsq/internal/spacegen"
	"indoorsq/internal/testspaces"
)

func planner(t *testing.T, f *testspaces.Strip) *route.Planner {
	t.Helper()
	eng := idindex.New(f.Space)
	eng.SetObjects(nil)
	return route.New(eng)
}

func TestViaConcatenatesLegs(t *testing.T) {
	f := testspaces.NewStrip()
	pl := planner(t, f)
	var st query.Stats
	p := indoor.At(2.5, 8, 0)  // R1
	w := indoor.At(7.5, 9, 0)  // R2
	q := indoor.At(12.5, 9, 0) // R3
	walk, err := pl.Via(context.Background(), p, []indoor.Point{w}, q, &st)
	if err != nil {
		t.Fatal(err)
	}
	// p->w = 10 (2 + 5 + 3); w->q = 3 + 5 + 3 = 11.
	if math.Abs(walk.Dist-21) > 1e-9 {
		t.Fatalf("Via dist = %g, want 21", walk.Dist)
	}
	if len(walk.Doors) != 4 {
		t.Fatalf("Via doors = %v", walk.Doors)
	}
}

func TestOptimizedReorders(t *testing.T) {
	f := testspaces.NewStrip()
	pl := planner(t, f)
	var st query.Stats
	p := indoor.At(1, 5, 0)  // west end of the hall
	q := indoor.At(19, 5, 0) // east end
	// Stops given in a deliberately bad order: far, near.
	stops := []indoor.Point{
		indoor.At(17.5, 9, 0), // R4 (east)
		indoor.At(2.5, 9, 0),  // R1 (west)
	}
	walk, order, err := pl.Optimized(context.Background(), p, stops, q, &st)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 0 {
		t.Fatalf("order = %v, want [1 0] (west first)", order)
	}
	// Compare against the naive order.
	naive, err := pl.Via(context.Background(), p, stops, q, &st)
	if err != nil {
		t.Fatal(err)
	}
	if walk.Dist >= naive.Dist {
		t.Fatalf("optimized %g should beat naive %g", walk.Dist, naive.Dist)
	}
	// And equals the explicitly good order.
	good, _ := pl.Via(context.Background(), p, []indoor.Point{stops[1], stops[0]}, q, &st)
	if math.Abs(walk.Dist-good.Dist) > 1e-9 {
		t.Fatalf("optimized %g != good order %g", walk.Dist, good.Dist)
	}
}

func TestOptimizedZeroStops(t *testing.T) {
	f := testspaces.NewStrip()
	pl := planner(t, f)
	var st query.Stats
	walk, order, err := pl.Optimized(context.Background(), indoor.At(1, 5, 0), nil, indoor.At(19, 5, 0), &st)
	if err != nil || len(order) != 0 {
		t.Fatalf("zero stops: %v, %v", order, err)
	}
	if math.Abs(walk.Dist-18) > 1e-9 {
		t.Fatalf("dist = %g", walk.Dist)
	}
}

func TestOptimizedMatchesBruteForce(t *testing.T) {
	f := testspaces.NewStrip()
	pl := planner(t, f)
	var st query.Stats
	p := indoor.At(7, 1, 0) // R6
	q := indoor.At(15, 2, 0)
	stops := []indoor.Point{
		indoor.At(2.5, 9, 0),  // R1
		indoor.At(12.5, 9, 0), // R3
		indoor.At(2.5, 2, 0),  // R5
	}
	walk, _, err := pl.Optimized(context.Background(), p, stops, q, &st)
	if err != nil {
		t.Fatal(err)
	}
	// Brute force over all 6 permutations.
	best := math.Inf(1)
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, perm := range perms {
		ordered := make([]indoor.Point, len(perm))
		for i, pi := range perm {
			ordered[i] = stops[pi]
		}
		w, err := pl.Via(context.Background(), p, ordered, q, &st)
		if err != nil {
			t.Fatal(err)
		}
		if w.Dist < best {
			best = w.Dist
		}
	}
	if math.Abs(walk.Dist-best) > 1e-9 {
		t.Fatalf("Optimized %g != brute force %g", walk.Dist, best)
	}
}

func TestOptimizedRespectsOneWayDoors(t *testing.T) {
	// With the one-way D8, visiting R6 before R7 is cheaper than after.
	f := testspaces.NewStrip()
	pl := planner(t, f)
	var st query.Stats
	p := indoor.At(7.5, 5, 0) // hall
	q := indoor.At(7.5, 5, 0)
	stops := []indoor.Point{
		indoor.At(15, 2, 0), // R7
		indoor.At(7, 2, 0),  // R6
	}
	walk, order, err := pl.Optimized(context.Background(), p, stops, q, &st)
	if err != nil {
		t.Fatal(err)
	}
	if order[0] != 1 { // R6 first, then through D8 into R7
		t.Fatalf("order = %v, want R6 first", order)
	}
	if walk.Dist <= 0 {
		t.Fatal("bad dist")
	}
}

func TestErrors(t *testing.T) {
	f := testspaces.NewStrip()
	eng := idmodel.New(f.Space)
	eng.SetObjects(nil)
	pl := route.New(eng)
	var st query.Stats
	if _, err := pl.Via(context.Background(), indoor.At(-1, -1, 0), nil, indoor.At(1, 5, 0), &st); err == nil {
		t.Fatal("outdoor source must fail")
	}
	many := make([]indoor.Point, route.MaxStops+1)
	for i := range many {
		many[i] = indoor.At(1, 5, 0)
	}
	if _, _, err := pl.Optimized(context.Background(), indoor.At(1, 5, 0), many, indoor.At(1, 5, 0), &st); err == nil {
		t.Fatal("too many stops must fail")
	}
}

// TestOptimizedAcrossProcs plans the same walks at GOMAXPROCS 1 (exec.Map's
// sequential path), 2 and 4 and requires the same walk, visiting order,
// distance bits and merged leg counters (VisitedDoors, WorkBytes,
// PeakWorkBytes) every time: the fan-out of the pairwise legs must not show
// in the answer or in its cost.
func TestOptimizedAcrossProcs(t *testing.T) {
	type plan struct {
		walk  query.Path
		order []int
		err   error
		st    query.Stats
	}
	planned := 0
	for seed := int64(1); seed <= 4; seed++ {
		sp := testspaces.RandomGrid(seed, 4, 4, 2, 3, float64(seed%2)*0.2)
		pl := route.New(idmodel.New(sp))
		rng := rand.New(rand.NewSource(seed))
		p, q := spacegen.Point(sp, rng), spacegen.Point(sp, rng)
		stops := make([]indoor.Point, 6)
		for i := range stops {
			stops[i] = spacegen.Point(sp, rng)
		}
		var ref plan
		for _, procs := range []int{1, 2, 4} {
			prev := runtime.GOMAXPROCS(procs)
			var got plan
			got.walk, got.order, got.err = pl.Optimized(context.Background(), p, stops, q, &got.st)
			runtime.GOMAXPROCS(prev)
			if procs == 1 {
				ref = got
				if got.err == nil {
					planned++
				}
				continue
			}
			if fmt.Sprint(got.err) != fmt.Sprint(ref.err) {
				t.Fatalf("seed=%d procs=%d: err %v, want %v", seed, procs, got.err, ref.err)
			}
			if math.Float64bits(got.walk.Dist) != math.Float64bits(ref.walk.Dist) ||
				!slices.Equal(got.walk.Doors, ref.walk.Doors) || !slices.Equal(got.order, ref.order) {
				t.Fatalf("seed=%d procs=%d: walk %g %v order %v, want %g %v order %v", seed, procs,
					got.walk.Dist, got.walk.Doors, got.order, ref.walk.Dist, ref.walk.Doors, ref.order)
			}
			if got.st.VisitedDoors != ref.st.VisitedDoors || got.st.WorkBytes != ref.st.WorkBytes ||
				got.st.PeakWorkBytes != ref.st.PeakWorkBytes {
				t.Fatalf("seed=%d procs=%d: stats %+v, want %+v", seed, procs, got.st, ref.st)
			}
		}
	}
	if planned == 0 {
		t.Fatal("no seed planned a walk; the test is vacuous")
	}
}

// TestOptimizedBudgetPerLeg runs a route whose legs each fit a door budget
// that all legs together exceed, at GOMAXPROCS 1, 2 and 4: the budget
// bounds every leg on its own, so the route succeeds however exec.Map
// splits the legs over workers.
func TestOptimizedBudgetPerLeg(t *testing.T) {
	const budget = 66
	sp := testspaces.RandomGrid(2, 4, 4, 2, 3, 0)
	eng := idmodel.New(sp)
	pl := route.New(eng)
	rng := rand.New(rand.NewSource(2))
	p, q := spacegen.Point(sp, rng), spacegen.Point(sp, rng)
	stops := make([]indoor.Point, 6)
	for i := range stops {
		stops[i] = spacegen.Point(sp, rng)
	}
	// Every leg alone stays within the budget; all legs together do not.
	pts := append([]indoor.Point{p, q}, stops...)
	largest, total := 0, 0
	for _, a := range pts {
		for _, b := range pts {
			var st query.Stats
			if _, err := eng.SPD(a, b, &st); err != nil {
				t.Fatal(err)
			}
			largest, total = max(largest, st.VisitedDoors), total+st.VisitedDoors
		}
	}
	if largest > budget || total <= budget {
		t.Fatalf("largest leg %d doors, all legs %d: want largest <= %d < all", largest, total, budget)
	}
	ctx := query.WithBudget(context.Background(), query.Budget{MaxVisitedDoors: budget})
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		_, _, err := pl.Optimized(ctx, p, stops, q, nil)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
	}
}
