package enginetest

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"indoorsq/internal/cindex"
	"indoorsq/internal/idindex"
	"indoorsq/internal/idmodel"
	"indoorsq/internal/indoor"
	"indoorsq/internal/iptree"
	"indoorsq/internal/query"
	"indoorsq/internal/testspaces"
)

// TestParallelConstructionDeterministic builds every engine at GOMAXPROCS=1
// and at GOMAXPROCS=8 over the same seeded synthetic dataset and asserts
// the two builds answer RQ/kNN/SPDQ identically — the engine-level
// counterpart of the matrix-identity tests in idindex and iptree.
func TestParallelConstructionDeterministic(t *testing.T) {
	sp := testspaces.RandomGrid(13, 4, 5, 2, 7, 0.2)
	treeOpt := iptree.Options{LeafSize: 3, Fanout: 2, Gamma: 4}
	vipOpt := treeOpt
	vipOpt.VIP = true

	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	build := func(procs int) []query.Engine {
		runtime.GOMAXPROCS(procs)
		return []query.Engine{idmodel.New(sp), idindex.New(sp), cindex.New(sp),
			iptree.New(sp, treeOpt), iptree.New(sp, vipOpt)}
	}
	seqs, pars := build(1), build(8)

	rng := rand.New(rand.NewSource(42))
	objs := randomObjects(sp, rng, 60)
	pts := make([]indoor.Point, 0, 12)
	for len(pts) < 12 {
		v := sp.Partition(indoor.PartitionID(rng.Intn(sp.NumPartitions())))
		if v.Kind == indoor.Staircase {
			continue
		}
		c := v.MBR.Center()
		pts = append(pts, indoor.At(c.X, c.Y, v.Floor))
	}

	for i, name := range []string{"IDModel", "IDIndex", "CIndex", "IPTree", "VIPTree"} {
		pr := struct{ seq, par query.Engine }{seqs[i], pars[i]}
		t.Run(name, func(t *testing.T) {
			pr.seq.SetObjects(objs)
			pr.par.SetObjects(objs)
			if pr.seq.SizeBytes() != pr.par.SizeBytes() {
				t.Fatalf("SizeBytes %d != %d", pr.par.SizeBytes(), pr.seq.SizeBytes())
			}
			var st query.Stats
			for i, p := range pts {
				sIDs, sErr := pr.seq.Range(p, 35, &st)
				pIDs, pErr := pr.par.Range(p, 35, &st)
				if (sErr == nil) != (pErr == nil) || !sameIDs(sIDs, pIDs) {
					t.Fatalf("Range diverges at %v: %v/%v vs %v/%v", p, sIDs, sErr, pIDs, pErr)
				}
				sNN, _ := pr.seq.KNN(p, 5, &st)
				pNN, _ := pr.par.KNN(p, 5, &st)
				if len(sNN) != len(pNN) {
					t.Fatalf("KNN size diverges at %v", p)
				}
				for j := range sNN {
					if sNN[j].ID != pNN[j].ID || math.Abs(sNN[j].Dist-pNN[j].Dist) > 0 {
						t.Fatalf("KNN diverges at %v: %v vs %v", p, sNN, pNN)
					}
				}
				q := pts[(i+1)%len(pts)]
				sPath, sErr := pr.seq.SPD(p, q, &st)
				pPath, pErr := pr.par.SPD(p, q, &st)
				if (sErr == nil) != (pErr == nil) {
					t.Fatalf("SPD error diverges at %v->%v", p, q)
				}
				if sErr == nil {
					if sPath.Dist != pPath.Dist || len(sPath.Doors) != len(pPath.Doors) {
						t.Fatalf("SPD diverges at %v->%v: %v vs %v", p, q, sPath, pPath)
					}
					for j := range sPath.Doors {
						if sPath.Doors[j] != pPath.Doors[j] {
							t.Fatalf("SPD door sequence diverges at %v->%v", p, q)
						}
					}
				}
			}
		})
	}
}
