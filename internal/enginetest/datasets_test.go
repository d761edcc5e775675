package enginetest

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"indoorsq/internal/dataset"
	"indoorsq/internal/query"
	"indoorsq/internal/snapshot/bundle"
	"indoorsq/internal/workload"
)

// TestCrossEngineOnBenchmarkVenues runs the identical-answers invariant on
// the real benchmark datasets (the venues every figure uses), not just on
// synthetic grids: CPH (small, open) and MZB (skewed, crucial corridors,
// 17 floors).
func TestCrossEngineOnBenchmarkVenues(t *testing.T) {
	if testing.Short() {
		t.Skip("builds benchmark venues")
	}
	for _, ds := range []string{"CPH", "MZB"} {
		ds := ds
		t.Run(ds, func(t *testing.T) {
			info := dataset.Get(ds)
			var engines []query.Engine
			for _, name := range bundle.EngineNames {
				eng, err := bundle.NewEngine(name, info.Space, bundle.Options{Gamma: info.Gamma})
				if err != nil {
					t.Fatal(err)
				}
				engines = append(engines, eng)
			}
			gen := workload.New(info.Space, 2024)
			objs := gen.Objects(300)
			for _, e := range engines {
				e.SetObjects(objs)
			}
			rng := rand.New(rand.NewSource(99))
			pts := gen.Points(8)
			pairs, err := gen.SPDPairs(context.Background(), info.DefaultS2T, 4)
			if err != nil {
				t.Fatal(err)
			}
			ref := engines[0]
			var st query.Stats
			for _, p := range pts {
				r := info.DefaultR * (0.5 + rng.Float64())
				k := 1 + rng.Intn(20)
				wantIDs, err := ref.Range(p, r, &st)
				if err != nil {
					t.Fatal(err)
				}
				wantKNN, err := ref.KNN(p, k, &st)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range engines[1:] {
					gotIDs, err := e.Range(p, r, &st)
					if err != nil || !sameIDs(gotIDs, wantIDs) {
						t.Fatalf("%s Range(%v, %.0f) = %d ids (%v), want %d",
							e.Name(), p, r, len(gotIDs), err, len(wantIDs))
					}
					gotKNN, err := e.KNN(p, k, &st)
					if err != nil || len(gotKNN) != len(wantKNN) {
						t.Fatalf("%s KNN(%v, %d): %d results (%v), want %d",
							e.Name(), p, k, len(gotKNN), err, len(wantKNN))
					}
					for i := range gotKNN {
						if math.Abs(gotKNN[i].Dist-wantKNN[i].Dist) > 1e-6 {
							t.Fatalf("%s KNN dist[%d] = %g, want %g",
								e.Name(), i, gotKNN[i].Dist, wantKNN[i].Dist)
						}
					}
				}
			}
			for _, pr := range pairs {
				want, err := ref.SPD(pr.P, pr.Q, &st)
				if err != nil {
					t.Fatal(err)
				}
				// The workload generator's ground-truth distance must agree.
				if math.Abs(want.Dist-pr.Dist) > 1e-6 {
					t.Fatalf("generator dist %g != engine dist %g", pr.Dist, want.Dist)
				}
				for _, e := range engines[1:] {
					got, err := e.SPD(pr.P, pr.Q, &st)
					if err != nil || math.Abs(got.Dist-want.Dist) > 1e-6 {
						t.Fatalf("%s SPD = %.9g (%v), want %.9g",
							e.Name(), got.Dist, err, want.Dist)
					}
					if err := checkPathSum(info.Space, got); err != nil {
						t.Fatalf("%s path: %v", e.Name(), err)
					}
				}
			}
		})
	}
}
