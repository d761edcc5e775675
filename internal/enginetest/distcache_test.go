package enginetest

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"indoorsq/internal/cindex"
	"indoorsq/internal/exec"
	"indoorsq/internal/indoor"
	"indoorsq/internal/query"
	"indoorsq/internal/testspaces"
)

// TestCIndexCachedEqualsUncached runs the same randomized RQ/kNNQ/SPDQ
// workload over a concave multi-floor space against two CINDEX instances —
// one computing every door-pair distance on the fly (NoDistCache), one going
// through the space's lazy door-pair cache — and requires bit-identical
// answers. Only the cost counters may differ.
func TestCIndexCachedEqualsUncached(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		sp := testspaces.RandomGridConcave(seed*31, 4, 4, 2, 3)
		rng := rand.New(rand.NewSource(seed))
		objs := randomObjects(sp, rng, 25)

		cached := cindex.New(sp)
		uncached := cindex.NewOpts(sp, cindex.Options{NoDistCache: true})
		cached.SetObjects(objs)
		uncached.SetObjects(objs)

		for q := 0; q < 20; q++ {
			p := randomPoint(sp, rng)
			var stC, stU query.Stats

			idsC, errC := cached.Range(p, 35, &stC)
			idsU, errU := uncached.Range(p, 35, &stU)
			if (errC == nil) != (errU == nil) || !eqIDs(idsC, idsU) {
				t.Fatalf("seed %d: Range(%v) cached %v / uncached %v", seed, p, idsC, idsU)
			}

			nnC, _ := cached.KNN(p, 5, &stC)
			nnU, _ := uncached.KNN(p, 5, &stU)
			if len(nnC) != len(nnU) {
				t.Fatalf("seed %d: KNN(%v) lengths %d vs %d", seed, p, len(nnC), len(nnU))
			}
			for i := range nnC {
				if nnC[i].ID != nnU[i].ID ||
					math.Float64bits(nnC[i].Dist) != math.Float64bits(nnU[i].Dist) {
					t.Fatalf("seed %d: KNN(%v)[%d] cached %+v != uncached %+v",
						seed, p, i, nnC[i], nnU[i])
				}
			}

			q2 := randomPoint(sp, rng)
			pathC, errC2 := cached.SPD(p, q2, &stC)
			pathU, errU2 := uncached.SPD(p, q2, &stU)
			if (errC2 == nil) != (errU2 == nil) {
				t.Fatalf("seed %d: SPD(%v,%v) errs %v vs %v", seed, p, q2, errC2, errU2)
			}
			if errC2 == nil && math.Float64bits(pathC.Dist) != math.Float64bits(pathU.Dist) {
				t.Fatalf("seed %d: SPD(%v,%v) dist %v vs %v", seed, p, q2, pathC.Dist, pathU.Dist)
			}

			if stU.CacheHits != 0 || stU.CacheMisses != 0 {
				t.Fatalf("seed %d: uncached engine recorded cache counters %+v", seed, stU)
			}
		}
	}
}

// TestDistCacheUnderExecWorkers fans a mixed batch over a cached CINDEX
// through exec.Map and exec.Do on a concave space — run with -race in
// tier-1 — and checks that the answers match a sequential run and that
// cache counters survive the per-worker stats merge.
func TestDistCacheUnderExecWorkers(t *testing.T) {
	sp := testspaces.RandomGridConcave(17, 5, 4, 2, 4)
	rng := rand.New(rand.NewSource(99))
	eng := cindex.New(sp)
	eng.SetObjects(randomObjects(sp, rng, 30))

	var ops []exec.Op
	for i := 0; i < 24; i++ {
		p := randomPoint(sp, rng)
		switch i % 3 {
		case 0:
			ops = append(ops, exec.Op{Kind: exec.RangeQ, P: p, R: 35})
		case 1:
			ops = append(ops, exec.Op{Kind: exec.KNNQ, P: p, K: 5})
		case 2:
			ops = append(ops, exec.Op{Kind: exec.SPDQ, P: p, Q: randomPoint(sp, rng)})
		}
	}

	var seqStats query.Stats
	seqRes := make([]exec.Result, len(ops))
	for i := range ops {
		seqRes[i] = exec.Do(context.Background(), eng, ops[i])
		seqStats.Add(seqRes[i].Stats)
	}

	prev := runtime.GOMAXPROCS(8)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	parRes := make([]exec.Result, len(ops))
	parStats, _ := exec.Map(len(ops), func(i int, st *query.Stats) error {
		parRes[i] = exec.Do(context.Background(), eng, ops[i])
		st.Add(parRes[i].Stats)
		return nil
	})

	for i := range seqRes {
		if (seqRes[i].Err == nil) != (parRes[i].Err == nil) {
			t.Fatalf("op %d: err %v vs %v", i, seqRes[i].Err, parRes[i].Err)
		}
		if !eqIDs(seqRes[i].IDs, parRes[i].IDs) {
			t.Fatalf("op %d: Range ids diverge", i)
		}
		if len(seqRes[i].Neighbors) != len(parRes[i].Neighbors) {
			t.Fatalf("op %d: KNN lengths diverge", i)
		}
		for j := range seqRes[i].Neighbors {
			if seqRes[i].Neighbors[j] != parRes[i].Neighbors[j] {
				t.Fatalf("op %d: KNN[%d] diverges", i, j)
			}
		}
	}

	if total := parStats.CacheHits + parStats.CacheMisses; total == 0 {
		t.Fatal("concurrent batch recorded no cache lookups")
	}
	// The cache was warmed by the sequential run, so every lookup of the
	// concurrent batch must be a hit — and the merged totals must match the
	// sequential run's lookup count exactly.
	if parStats.CacheMisses != 0 {
		t.Fatalf("warm concurrent batch recorded %d misses", parStats.CacheMisses)
	}
	seqTotal := seqStats.CacheHits + seqStats.CacheMisses
	if parStats.CacheHits != seqTotal {
		t.Fatalf("merged hits %d != sequential lookups %d", parStats.CacheHits, seqTotal)
	}

	// Everything the cache holds must still agree with the uncached kernel.
	var vID indoor.PartitionID
	for vi := 0; vi < sp.NumPartitions(); vi++ {
		vID = indoor.PartitionID(vi)
		for _, a := range sp.Partition(vID).Doors {
			for _, b := range sp.Partition(vID).Doors {
				got, _ := sp.WithinDoorsCached(vID, a, b)
				want := sp.WithinDoors(vID, a, b)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("v=%d ‖%d,%d‖: cached %v != uncached %v", vID, a, b, got, want)
				}
			}
		}
	}
}
