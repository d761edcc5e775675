package iptree

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"indoorsq/internal/indoor"
	"indoorsq/internal/spacegen"
	"indoorsq/internal/testspaces"
)

// TestParallelBuildDeterministic asserts parallel construction fills every
// node matrix, the VIP materialization, and the routing tables identically
// to a sequential (GOMAXPROCS=1) build.
func TestParallelBuildDeterministic(t *testing.T) {
	sp := testspaces.RandomGrid(9, 4, 5, 2, 7, 0.25)
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, vip := range []bool{false, true} {
		opt := Options{LeafSize: 3, Fanout: 2, Gamma: 4, VIP: vip}
		runtime.GOMAXPROCS(1)
		seq := New(sp, opt)
		for _, w := range []int{2, 4, 8} {
			runtime.GOMAXPROCS(w)
			par := New(sp, opt)
			if len(seq.nodes) != len(par.nodes) {
				t.Fatalf("vip=%v workers=%d: node count %d != %d", vip, w, len(par.nodes), len(seq.nodes))
			}
			for i := range seq.nodes {
				a, b := &seq.nodes[i], &par.nodes[i]
				if !reflect.DeepEqual(a.md2a, b.md2a) || !reflect.DeepEqual(a.ma2d, b.ma2d) {
					t.Fatalf("vip=%v workers=%d: leaf matrices differ at node %d", vip, w, i)
				}
				if !reflect.DeepEqual(a.m, b.m) {
					t.Fatalf("vip=%v workers=%d: non-leaf matrix differs at node %d", vip, w, i)
				}
				if !reflect.DeepEqual(a.vipD2A, b.vipD2A) || !reflect.DeepEqual(a.vipA2D, b.vipA2D) {
					t.Fatalf("vip=%v workers=%d: VIP matrices differ at node %d", vip, w, i)
				}
			}
			if len(seq.routes) != len(par.routes) {
				t.Fatalf("vip=%v workers=%d: route count differs", vip, w)
			}
			for d, ra := range seq.routes {
				rb, ok := par.routes[d]
				if !ok || !reflect.DeepEqual(ra.next, rb.next) || !reflect.DeepEqual(ra.prev, rb.prev) {
					t.Fatalf("vip=%v workers=%d: routes differ at door %d", vip, w, d)
				}
			}
		}
	}
}

// eqBits reports whether two float64 slices are Float64bits-identical,
// element for element.
func eqBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestParallelBuildDeterministicSpacegen repeats the VIP-tree matrix
// identity check over generated venues from the same corpus family the
// differential harness sweeps, comparing every leaf, non-leaf, and VIP
// materialization matrix at the Float64bits level across worker counts.
func TestParallelBuildDeterministicSpacegen(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := spacegen.Params{
			Floors:     1 + rng.Intn(3),
			Rows:       1 + rng.Intn(3),
			Cols:       2 + rng.Intn(3),
			Hall:       spacegen.HallKind(rng.Intn(3)),
			ExtraDoors: rng.Intn(6),
			OneWayFrac: float64(rng.Intn(3)) / 2,
			Imbalance:  rng.Float64(),
			Decompose:  rng.Intn(2) == 1,
		}.Normalize()
		sp, err := spacegen.Generate(seed, p)
		if err != nil {
			t.Fatalf("seed=%d: generate: %v", seed, err)
		}
		opt := Options{LeafSize: 3, Fanout: 2, Gamma: 4, VIP: true}
		runtime.GOMAXPROCS(1)
		seq := New(sp, opt)
		for _, w := range []int{3, 8} {
			runtime.GOMAXPROCS(w)
			par := New(sp, opt)
			if len(seq.nodes) != len(par.nodes) {
				t.Fatalf("seed=%d workers=%d: node count %d != %d", seed, w, len(par.nodes), len(seq.nodes))
			}
			for i := range seq.nodes {
				a, b := &seq.nodes[i], &par.nodes[i]
				if !eqBits(a.md2a, b.md2a) || !eqBits(a.ma2d, b.ma2d) || !eqBits(a.m, b.m) {
					t.Fatalf("seed=%d workers=%d: matrices differ at node %d", seed, w, i)
				}
				if len(a.vipD2A) != len(b.vipD2A) || len(a.vipA2D) != len(b.vipA2D) {
					t.Fatalf("seed=%d workers=%d: VIP level count differs at node %d", seed, w, i)
				}
				for li := range a.vipD2A {
					if !eqBits(a.vipD2A[li], b.vipD2A[li]) || !eqBits(a.vipA2D[li], b.vipA2D[li]) {
						t.Fatalf("seed=%d workers=%d: VIP matrices differ at node %d level %d", seed, w, i, li)
					}
				}
			}
			for d, ra := range seq.routes {
				rb, ok := par.routes[d]
				if !ok || !reflect.DeepEqual(ra.next, rb.next) || !reflect.DeepEqual(ra.prev, rb.prev) {
					t.Fatalf("seed=%d workers=%d: routes differ at door %d", seed, w, d)
				}
			}
		}
	}
}

// TestAccessDoorsMatchSubtreeScan checks the per-door ancestor walk of
// computeAccessDoors against its definition: a node's access doors are the
// two-partition doors, ascending by id, with exactly one partition in the
// node's subtree.
func TestAccessDoorsMatchSubtreeScan(t *testing.T) {
	check := func(label string, tr *Tree) {
		inSubtree := func(p indoor.PartitionID, n int32) bool {
			for id := tr.partLeaf[p]; id >= 0; id = tr.nodes[id].parent {
				if id == n {
					return true
				}
			}
			return false
		}
		for i := range tr.nodes {
			n := &tr.nodes[i]
			var want []indoor.DoorID
			for di := 0; di < tr.sp.NumDoors(); di++ {
				parts := tr.sp.Door(indoor.DoorID(di)).Parts
				if len(parts) == 2 && inSubtree(parts[0], n.id) != inSubtree(parts[1], n.id) {
					want = append(want, indoor.DoorID(di))
				}
			}
			if !slices.Equal(n.ad, want) {
				t.Fatalf("%s: node %d access doors %v, want %v", label, i, n.ad, want)
			}
			for j, d := range n.ad {
				if n.adIdx[d] != int32(j) || len(n.adIdx) != len(n.ad) {
					t.Fatalf("%s: node %d adIdx does not index ad", label, i)
				}
			}
		}
	}
	check("grid", New(testspaces.RandomGrid(9, 4, 5, 2, 7, 0.25), Options{LeafSize: 3, Fanout: 2, Gamma: 4}))
	for seed := int64(1); seed <= 6; seed++ {
		p := spacegen.Params{
			Floors:     1 + int(seed%3),
			Rows:       1 + int(seed%3),
			Cols:       2 + int(seed%4),
			Hall:       spacegen.HallKind(seed % 3),
			ExtraDoors: int(seed % 6),
			OneWayFrac: float64(seed%3) / 2,
			Decompose:  seed%2 == 1,
		}.Normalize()
		sp, err := spacegen.Generate(seed, p)
		if err != nil {
			t.Fatalf("seed=%d: generate: %v", seed, err)
		}
		check(fmt.Sprintf("seed=%d", seed), New(sp, Options{LeafSize: 3, Fanout: 3, Gamma: 4, VIP: true}))
	}
}
