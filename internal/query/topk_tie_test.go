package query

import "testing"

// TestTopKTieBreaksByID is the regression test for the deterministic
// tie-break at the k-th distance: among equidistant candidates the smallest
// ids win, regardless of offer order. Before the fix the survivor depended
// on which candidate arrived first, so engines with different iteration
// orders returned different (all individually correct) kNN sets.
func TestTopKTieBreaksByID(t *testing.T) {
	orders := [][]int32{
		{1, 2, 3}, {1, 3, 2}, {2, 1, 3}, {2, 3, 1}, {3, 1, 2}, {3, 2, 1},
	}
	for _, order := range orders {
		tk := NewTopK(2, 2)
		for _, id := range order {
			tk.Offer(id, 5)
		}
		got := tk.Results()
		if len(got) != 2 || got[0] != (Neighbor{ID: 1, Dist: 5}) || got[1] != (Neighbor{ID: 2, Dist: 5}) {
			t.Fatalf("offer order %v: results %v, want [{1 5} {2 5}]", order, got)
		}
	}
}

// TestTopKTieReplacesLargerID pins the single-slot case: a candidate at
// exactly the bound evicts the incumbent only when its id is smaller.
func TestTopKTieReplacesLargerID(t *testing.T) {
	tk := NewTopK(1, 1)
	tk.Offer(10, 5)
	if !tk.Offer(3, 5) {
		t.Fatal("equal distance with smaller id should enter")
	}
	if tk.Offer(20, 5) {
		t.Fatal("equal distance with larger id should be rejected")
	}
	if got := tk.Results(); len(got) != 1 || got[0] != (Neighbor{ID: 3, Dist: 5}) {
		t.Fatalf("results %v, want [{3 5}]", got)
	}
	if b := tk.Bound(); b != 5 {
		t.Fatalf("bound = %g", b)
	}
}
