package trajectory_test

import (
	"context"
	"testing"

	"indoorsq/internal/indoor"
	"indoorsq/internal/trajectory"
)

// Partitions used symbolically in the tests.
const (
	lobby indoor.PartitionID = 0
	cafe  indoor.PartitionID = 1
	shop  indoor.PartitionID = 2
)

func demoLog(t *testing.T) *trajectory.Log {
	t.Helper()
	l, err := trajectory.NewLog([]trajectory.Record{
		{Obj: 1, Part: lobby, In: 0, Out: 10},
		{Obj: 1, Part: cafe, In: 10, Out: 20},
		{Obj: 2, Part: lobby, In: 5, Out: 15},
		{Obj: 2, Part: cafe, In: 15, Out: 25},
		{Obj: 3, Part: shop, In: 0, Out: 30},
		{Obj: 4, Part: cafe, In: 21, Out: 22},
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewLogValidates(t *testing.T) {
	if _, err := trajectory.NewLog([]trajectory.Record{{Obj: 1, Part: lobby, In: 5, Out: 5}}); err == nil {
		t.Fatal("empty stay must fail")
	}
	l := demoLog(t)
	if l.Len() != 6 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestTopVisited(t *testing.T) {
	l := demoLog(t)
	top := l.TopVisited(0, 30, 2)
	// cafe: 3 visits (o1, o2, o4); lobby: 2; shop: 1.
	if len(top) != 2 || top[0].Part != cafe || top[0].Visits != 3 || top[1].Part != lobby {
		t.Fatalf("TopVisited = %v", top)
	}
	// Restricted window excludes late visits.
	top = l.TopVisited(0, 12, 3)
	if top[0].Part != lobby || top[0].Visits != 2 {
		t.Fatalf("windowed TopVisited = %v", top)
	}
}

func TestJoin(t *testing.T) {
	l := demoLog(t)
	join := func(t1, t2 float64) []trajectory.Pair {
		pairs, err := l.Join(context.Background(), t1, t2)
		if err != nil {
			t.Fatal(err)
		}
		return pairs
	}
	// o1+o2 overlap in the lobby (5-10) and cafe (15-20); o2+o4 overlap in
	// the cafe (21-22).
	pairs := join(0, 30)
	want := []trajectory.Pair{{A: 1, B: 2}, {A: 2, B: 4}}
	if len(pairs) != 2 || pairs[0] != want[0] || pairs[1] != want[1] {
		t.Fatalf("Join = %v", pairs)
	}
	// A window covering only o4's minute finds just that pair.
	pairs = join(21, 22)
	if len(pairs) != 1 || pairs[0] != (trajectory.Pair{A: 2, B: 4}) {
		t.Fatalf("Join window = %v", pairs)
	}
	// Disjoint stays produce no pair.
	pairs = join(0, 4.9)
	if len(pairs) != 0 {
		t.Fatalf("early Join = %v", pairs)
	}
}

func TestDense(t *testing.T) {
	l := demoLog(t)
	dense := l.Dense(0, 30, 2)
	// lobby peaks at 2 (o1+o2 during 5-10); cafe peaks at 2 (o2+o4 during
	// 21-22); shop peaks at 1.
	if len(dense) != 2 {
		t.Fatalf("Dense = %v", dense)
	}
	for _, d := range dense {
		if d.Visits != 2 {
			t.Fatalf("Dense = %v", dense)
		}
	}
	if len(l.Dense(0, 30, 3)) != 0 {
		t.Fatal("no partition reaches density 3")
	}
	// Exits at the same instant as entries do not double-count.
	if d := l.Dense(10, 20, 2); len(d) != 1 || d[0].Part != lobby {
		// lobby 5-15 has o2 only within [10,20)? o1 leaves at 10 (exclusive)
		// -> peak 1; cafe has o1 (10-20) and o2 (15-25) overlapping 15-20 ->
		// peak 2.
		if len(d) != 1 || d[0].Part != cafe {
			t.Fatalf("Dense tie handling = %v", d)
		}
	}
}

func TestFlow(t *testing.T) {
	l := demoLog(t)
	if f := l.Flow(cafe, 0, 30); f != 3 {
		t.Fatalf("Flow(cafe) = %d, want 3", f)
	}
	if f := l.Flow(shop, 0, 30); f != 1 {
		t.Fatalf("Flow(shop) = %d", f)
	}
	if f := l.Flow(cafe, 0, 5); f != 0 {
		t.Fatalf("Flow early = %d", f)
	}
}

func TestFromUpdates(t *testing.T) {
	updates := []trajectory.PositionUpdate{
		{1, lobby, 0},
		{1, lobby, 5},
		{1, cafe, 10},
		{2, shop, 3},
		{1, cafe, 12},
	}
	l, err := trajectory.FromUpdates(updates, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Object 1: lobby [0,10), cafe [10,13); object 2: shop [3,4).
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	if f := l.Flow(lobby, 0, 100); f != 1 {
		t.Fatalf("Flow(lobby) = %d", f)
	}
	top := l.TopVisited(0, 100, 1)
	if len(top) != 1 || top[0].Visits != 1 {
		t.Fatalf("TopVisited = %v", top)
	}

	// Out-of-order updates fail.
	bad := []trajectory.PositionUpdate{
		{1, lobby, 10},
		{1, lobby, 5},
	}
	if _, err := trajectory.FromUpdates(bad, 1); err == nil {
		t.Fatal("out-of-order updates must fail")
	}
}
