package query

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"indoorsq/internal/indoor"
	"indoorsq/internal/testspaces"
)

func TestObjectStoreBuckets(t *testing.T) {
	f := testspaces.NewStrip()
	objs := []Object{
		{ID: 10, Loc: indoor.At(2, 8, 0), Part: f.R1},
		{ID: 11, Loc: indoor.At(3, 8, 0), Part: f.R1},
		{ID: 12, Loc: indoor.At(7, 2, 0), Part: f.R6},
	}
	st := NewObjectStore(f.Space, objs)
	if st.Len() != 3 {
		t.Fatalf("Len = %d", st.Len())
	}
	if got := st.Bucket(f.R1); len(got) != 2 {
		t.Fatalf("bucket R1 has %d objects, want 2", len(got))
	}
	if got := st.Bucket(f.Hall); len(got) != 0 {
		t.Fatalf("bucket Hall has %d objects, want 0", len(got))
	}
	if st.At(st.Bucket(f.R6)[0]).ID != 12 {
		t.Fatal("wrong object in R6 bucket")
	}
	if st.SizeBytes() <= 0 {
		t.Fatal("SizeBytes must be positive")
	}
}

func TestObjectStoreRejectsBadPartition(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid partition")
		}
	}()
	f := testspaces.NewStrip()
	NewObjectStore(f.Space, []Object{{ID: 1, Part: 70}})
}

func TestRangeScan(t *testing.T) {
	f := testspaces.NewStrip()
	objs := []Object{
		{ID: 1, Loc: indoor.At(1, 5, 0), Part: f.Hall},
		{ID: 2, Loc: indoor.At(10, 5, 0), Part: f.Hall},
		{ID: 3, Loc: indoor.At(19, 5, 0), Part: f.Hall},
	}
	st := NewObjectStore(f.Space, objs)
	set := NewIDSet(st.Len())
	defer set.Release()
	st.CollectScan(f.Space, f.Hall, indoor.At(0, 5, 0), 10.5, set)
	if got := set.Sorted(); !slices.Equal(got, []int32{1, 2}) {
		t.Fatalf("CollectScan found %v, want [1 2]", got)
	}
	// A second scan skips the collected objects and adds only new ones.
	st.CollectScan(f.Space, f.Hall, indoor.At(20, 5, 0), 10.5, set)
	if got := set.Sorted(); !slices.Equal(got, []int32{1, 2, 3}) {
		t.Fatalf("after a second scan: %v, want [1 2 3]", got)
	}
}

func TestTopKBasic(t *testing.T) {
	tk := NewTopK(2, 2)
	if !math.IsInf(tk.Bound(), 1) {
		t.Fatal("empty TopK bound should be +Inf")
	}
	tk.Offer(1, 5)
	tk.Offer(2, 3)
	if b := tk.Bound(); b != 5 {
		t.Fatalf("bound = %g, want 5", b)
	}
	tk.Offer(3, 4) // evicts id 1
	res := tk.Results()
	if len(res) != 2 || res[0].ID != 2 || res[1].ID != 3 {
		t.Fatalf("results = %v", res)
	}
}

func TestTopKImprovesExisting(t *testing.T) {
	tk := NewTopK(2, 2)
	tk.Offer(1, 10)
	tk.Offer(2, 20)
	if !tk.Offer(2, 5) {
		t.Fatal("improving an existing entry should report true")
	}
	if tk.Offer(2, 7) {
		t.Fatal("worsening an existing entry should report false")
	}
	res := tk.Results()
	if res[0].ID != 2 || res[0].Dist != 5 {
		t.Fatalf("results = %v", res)
	}
	if b := tk.Bound(); b != 10 {
		t.Fatalf("bound = %g, want 10", b)
	}
}

func TestTopKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.Intn(10)
		tk := NewTopK(k, k)
		n := 1 + rng.Intn(50)
		best := map[int32]float64{}
		for i := 0; i < n; i++ {
			id := int32(rng.Intn(20))
			d := float64(rng.Intn(100))
			tk.Offer(id, d)
			if old, ok := best[id]; !ok || d < old {
				best[id] = d
			}
		}
		var want []Neighbor
		for id, d := range best {
			want = append(want, Neighbor{ID: id, Dist: d})
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Dist != want[j].Dist {
				return want[i].Dist < want[j].Dist
			}
			return want[i].ID < want[j].ID
		})
		if len(want) > k {
			want = want[:k]
		}
		got := tk.Results()
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d results, want %d", trial, len(got), len(want))
		}
		for i := range got {
			// The (dist, id) tie-break makes the result set exact: it is the
			// first k of the brute-force order, ids included.
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v, want %v", trial, got, want)
			}
		}
	}
}

func TestStatsCounters(t *testing.T) {
	var st Stats
	st.Alloc(100)
	st.Door()
	st.Door()
	if st.WorkBytes != 100 || st.VisitedDoors != 2 {
		t.Fatalf("stats = %+v", st)
	}
	st.Reset()
	if st.WorkBytes != 0 || st.VisitedDoors != 0 {
		t.Fatalf("reset failed: %+v", st)
	}
	// Nil receiver is a no-op.
	var nilSt *Stats
	nilSt.Alloc(5)
	nilSt.Door()
}

func TestPathString(t *testing.T) {
	p := Path{Dist: 6.2, Doors: []indoor.DoorID{1, 3}}
	if p.String() != "path(2 doors, 6.20m)" {
		t.Fatalf("String = %q", p.String())
	}
}
