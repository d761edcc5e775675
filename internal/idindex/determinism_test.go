package idindex

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

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
