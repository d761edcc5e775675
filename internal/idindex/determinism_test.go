package idindex

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"indoorsq/internal/indoor"
	"indoorsq/internal/spacegen"
	"indoorsq/internal/testspaces"
)

// TestParallelBuildDeterministic asserts parallel construction produces
// distance, order and first-hop matrices byte-identical to a sequential
// (GOMAXPROCS=1) build.
func TestParallelBuildDeterministic(t *testing.T) {
	sp := testspaces.RandomGrid(9, 4, 5, 2, 7, 0.25)
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	seq := New(sp)
	for _, w := range []int{2, 4, 8} {
		runtime.GOMAXPROCS(w)
		par := New(sp)
		if !reflect.DeepEqual(seq.d2d, par.d2d) {
			t.Fatalf("d2d differs at workers=%d", w)
		}
		if !reflect.DeepEqual(seq.idx, par.idx) {
			t.Fatalf("idx differs at workers=%d", w)
		}
		if !reflect.DeepEqual(seq.fh, par.fh) {
			t.Fatalf("fh differs at workers=%d", w)
		}
	}
}

// TestParallelBuildDeterministicSpacegen repeats the matrix-identity check
// over generated venues sampling varied hallway topologies, decompositions,
// one-way doors, and floor counts — the same corpus family the differential
// harness sweeps. Distances are compared at the Float64bits level so even a
// sign-of-zero or NaN-payload divergence between worker counts would fail.
func TestParallelBuildDeterministicSpacegen(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for seed := int64(1); seed <= 8; seed++ {
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
		runtime.GOMAXPROCS(1)
		seq := New(sp)
		for _, w := range []int{3, 8} {
			runtime.GOMAXPROCS(w)
			par := New(sp)
			for i := range seq.d2d {
				if math.Float64bits(seq.d2d[i]) != math.Float64bits(par.d2d[i]) {
					t.Fatalf("seed=%d workers=%d: d2d[%d] %x != %x",
						seed, w, i, math.Float64bits(par.d2d[i]), math.Float64bits(seq.d2d[i]))
				}
			}
			if !reflect.DeepEqual(seq.idx, par.idx) || !reflect.DeepEqual(seq.fh, par.fh) {
				t.Fatalf("seed=%d workers=%d: order/first-hop matrices differ", seed, w)
			}
		}
	}
}

// TestOrderRowsMatchDistIDSort pins every Midx row to the full sort of its
// d2d row by (distance, door id), on generated venues with one-way doors
// and on the same venues with a closed wing, whose rows end in unreached
// (+Inf) doors.
func TestOrderRowsMatchDistIDSort(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		p := spacegen.Params{
			Floors:     1 + int(seed%2),
			Rows:       2,
			Cols:       3 + int(seed%3),
			Hall:       spacegen.HallKind(seed % 3),
			ExtraDoors: int(seed % 5),
			OneWayFrac: float64(seed%3) / 2,
			Imbalance:  0.4,
			Decompose:  seed%2 == 0,
		}.Normalize()
		sp, err := spacegen.Generate(seed, p)
		if err != nil {
			t.Fatalf("seed=%d: generate: %v", seed, err)
		}
		maxX := math.Inf(-1)
		for v := 0; v < sp.NumPartitions(); v++ {
			maxX = math.Max(maxX, sp.Partition(indoor.PartitionID(v)).MBR.MaxX)
		}
		wing, err := testspaces.CloseWing(sp, 0.6*maxX)
		if err != nil {
			t.Fatalf("seed=%d: close wing: %v", seed, err)
		}
		for _, c := range []struct {
			name string
			sp   *indoor.Space
		}{{"open", sp}, {"wing", wing}} {
			ix := New(c.sp)
			n := ix.n
			unreached := 0
			want := make([]int32, n)
			for src := 0; src < n; src++ {
				row := ix.d2d[src*n : (src+1)*n]
				for i := range want {
					want[i] = int32(i)
				}
				sort.Slice(want, func(a, b int) bool {
					da, db := row[want[a]], row[want[b]]
					if da != db {
						return da < db
					}
					return want[a] < want[b]
				})
				if got := ix.idx[src*n : (src+1)*n]; !reflect.DeepEqual(got, want) {
					t.Fatalf("seed=%d %s: Midx row %d = %v, want %v", seed, c.name, src, got, want)
				}
				for _, v := range row {
					if math.IsInf(v, 1) {
						unreached++
					}
				}
			}
			if c.name == "wing" && unreached == 0 {
				t.Fatalf("seed=%d: closed wing left every door reachable", seed)
			}
		}
	}
}
