package enginetest

import (
	"math"
	"runtime"
	"testing"

	"indoorsq/internal/doorgraph"
	"indoorsq/internal/spacegen"
)

// csrSeeds is how many generated spaces the CSR determinism sweep covers.
// It reuses diffParams, so the spaces sample the same topology corpus as
// the 210-space differential harness (which itself exercises the CSR door
// graph inside every engine build it performs).
const csrSeeds = 24

// TestDoorGraphDeterministicAcrossWorkers pins the PR 1 guarantee on the
// flattened representation: for any GOMAXPROCS, Build must emit
// bitwise-identical CSR arrays — same offsets, same target order, and
// Float64bits-identical weights — and full Dijkstra sweeps from every
// source must produce Float64bits-identical distance matrices in both
// directions.
func TestDoorGraphDeterministicAcrossWorkers(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for seed := int64(1); seed <= csrSeeds; seed++ {
		seed := seed
		params := diffParams(seed)
		sp, err := spacegen.Generate(seed, params)
		if err != nil {
			t.Fatalf("seed=%d params=%s: generate: %v", seed, params, err)
		}
		runtime.GOMAXPROCS(1)
		ref := doorgraph.Build(sp)
		for _, workers := range []int{2, 3, 8} {
			runtime.GOMAXPROCS(workers)
			g := doorgraph.Build(sp)
			if g.N != ref.N || g.NumEdges() != ref.NumEdges() {
				t.Fatalf("seed=%d workers=%d: shape %d/%d != %d/%d",
					seed, workers, g.N, g.NumEdges(), ref.N, ref.NumEdges())
			}
			for d := 0; d < ref.N; d++ {
				compareRow(t, seed, workers, "fwd", d, g, ref, false)
				compareRow(t, seed, workers, "rev", d, g, ref, true)
			}
			sweepCompare(t, seed, workers, g, ref)
		}
	}
}

func compareRow(t *testing.T, seed int64, workers int, dir string, d int, g, ref *doorgraph.Graph, reverse bool) {
	t.Helper()
	row := func(gr *doorgraph.Graph) ([]int32, []float64) {
		if reverse {
			return gr.RevRow(d)
		}
		return gr.FwdRow(d)
	}
	gt, gw := row(g)
	rt, rw := row(ref)
	if len(gt) != len(rt) {
		t.Fatalf("seed=%d workers=%d: %s row %d length %d != %d",
			seed, workers, dir, d, len(gt), len(rt))
	}
	for i := range gt {
		if gt[i] != rt[i] || math.Float64bits(gw[i]) != math.Float64bits(rw[i]) {
			t.Fatalf("seed=%d workers=%d: %s row %d edge %d differs: (%d, %x) vs (%d, %x)",
				seed, workers, dir, d, i, gt[i], math.Float64bits(gw[i]), rt[i], math.Float64bits(rw[i]))
		}
	}
}

func sweepCompare(t *testing.T, seed int64, workers int, g, ref *doorgraph.Graph) {
	t.Helper()
	sg := g.AcquireScratch()
	defer g.ReleaseScratch(sg)
	sr := ref.AcquireScratch()
	defer ref.ReleaseScratch(sr)
	for _, reverse := range []bool{false, true} {
		for src := int32(0); src < int32(ref.N); src++ {
			sg.Run(g, src, reverse)
			sr.Run(ref, src, reverse)
			for d := 0; d < ref.N; d++ {
				if math.Float64bits(sg.DistAt(d)) != math.Float64bits(sr.DistAt(d)) {
					t.Fatalf("seed=%d workers=%d reverse=%v: dist[%d->%d] %x != %x",
						seed, workers, reverse, src, d,
						math.Float64bits(sg.DistAt(d)), math.Float64bits(sr.DistAt(d)))
				}
				if sg.PrevAt(d) != sr.PrevAt(d) || sg.FirstAt(d) != sr.FirstAt(d) {
					t.Fatalf("seed=%d workers=%d reverse=%v: tree[%d->%d] (%d,%d) != (%d,%d)",
						seed, workers, reverse, src, d,
						sg.PrevAt(d), sg.FirstAt(d), sr.PrevAt(d), sr.FirstAt(d))
				}
			}
		}
	}
}
