package enginetest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"indoorsq/internal/indoor"
	"indoorsq/internal/oracle"
	"indoorsq/internal/query"
	"indoorsq/internal/spacegen"
)

// diffSpaces is the number of generated spaces the differential sweep
// checks; the harness contract is at least 200.
const diffSpaces = 210

// diffParams derives a varied generator parameterization from the seed,
// cycling through every hallway topology, decomposition, imbalance,
// one-way doors, and floor counts while keeping each space small enough
// that the whole sweep stays fast under -race.
func diffParams(seed int64) spacegen.Params {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed5eed))
	p := spacegen.Params{
		Floors:      1 + rng.Intn(3),
		Rows:        1 + rng.Intn(3),
		Cols:        2 + rng.Intn(3),
		Hall:        spacegen.HallKind(rng.Intn(3)),
		ExtraDoors:  rng.Intn(6),
		OneWayFrac:  float64(rng.Intn(3)) / 2,
		Imbalance:   rng.Float64(),
		Decompose:   rng.Intn(2) == 1,
		StairLength: 4 + rng.Float64()*6,
		Objects:     8 + rng.Intn(12),
	}
	return p.Normalize()
}

// TestDifferentialVsOracle is the tentpole harness: for hundreds of
// generated (seed, space, query) triples, all five engines — driven both
// directly and through query.Range/KNN/SPD — must match the brute-force oracle
// exactly on every query type. It runs in short mode too; any divergence
// prints the failing seed and generator parameters.
func TestDifferentialVsOracle(t *testing.T) {
	for seed := int64(1); seed <= diffSpaces; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runDifferential(t, seed, diffParams(seed), 3)
		})
	}
}

// runDifferential checks every engine against the oracle on one
// generated space over the given number of query trials.
func runDifferential(t *testing.T, seed int64, params spacegen.Params, trials int) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed=%d params=%s: %s", seed, params, fmt.Sprintf(format, args...))
	}
	sp, err := spacegen.Generate(seed, params)
	if err != nil {
		fail("generate: %v", err)
	}
	objs := spacegen.Objects(sp, seed+1, params.Objects)
	ref := oracle.New(sp)
	ref.SetObjects(objs)
	engines := allEngines(sp)
	for _, e := range engines {
		e.SetObjects(objs)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed * 7919))
	var st query.Stats

	// ErrNoHost parity: a point outside every partition must be rejected
	// identically by the oracle and every engine on every entry point.
	out := indoor.At(-1e6, -1e6, 0)
	if _, err := ref.Range(out, 1, nil); !errors.Is(err, query.ErrNoHost) {
		fail("oracle outdoor Range err = %v", err)
	}
	for _, e := range engines {
		if _, err := e.Range(out, 1, &st); !errors.Is(err, query.ErrNoHost) {
			fail("%s outdoor Range err = %v, want ErrNoHost", e.Name(), err)
		}
		if _, err := e.KNN(out, 1, &st); !errors.Is(err, query.ErrNoHost) {
			fail("%s outdoor KNN err = %v, want ErrNoHost", e.Name(), err)
		}
		if _, err := query.SPD(ctx, e, out, out, &st); !errors.Is(err, query.ErrNoHost) {
			fail("%s outdoor query.SPD err = %v, want ErrNoHost", e.Name(), err)
		}
	}

	for trial := 0; trial < trials; trial++ {
		p := randomPoint(sp, rng)
		q := randomPoint(sp, rng)
		all, err := ref.AllDists(p)
		if err != nil {
			fail("trial %d: oracle AllDists: %v", trial, err)
		}

		// RQ at radii snapped away from floating-point decision
		// boundaries (engines sum distances in different orders, so a
		// radius within ~1e-12 of an object distance could legally flip
		// its membership).
		for _, r := range snapRadii(all, rng) {
			wantIDs, err := ref.Range(p, r, nil)
			if err != nil {
				fail("trial %d: oracle Range(r=%g): %v", trial, r, err)
			}
			for _, e := range engines {
				gotIDs, err := e.Range(p, r, &st)
				if err != nil {
					fail("trial %d: %s Range(r=%g): %v", trial, e.Name(), r, err)
				}
				if !sameIDs(gotIDs, wantIDs) {
					fail("trial %d: %s Range(%v, r=%g) = %v, oracle %v",
						trial, e.Name(), p, r, gotIDs, wantIDs)
				}
				gotCtx, err := query.Range(ctx, e, p, r, &st)
				if err != nil || !sameIDs(gotCtx, wantIDs) {
					fail("trial %d: %s query.Range(r=%g) = %v (%v), oracle %v",
						trial, e.Name(), r, gotCtx, err, wantIDs)
				}
			}
		}

		// kNNQ at k values snapped off near-ties at the k-th distance.
		for _, k := range snapKs(all, len(objs), rng) {
			wantKNN, err := ref.KNN(p, k, nil)
			if err != nil {
				fail("trial %d: oracle KNN(k=%d): %v", trial, k, err)
			}
			for _, e := range engines {
				gotKNN, err := e.KNN(p, k, &st)
				if err != nil {
					fail("trial %d: %s KNN(k=%d): %v", trial, e.Name(), k, err)
				}
				compareKNN(fail, trial, e.Name(), k, gotKNN, wantKNN)
				gotCtx, err := query.KNN(ctx, e, p, k, &st)
				if err != nil {
					fail("trial %d: %s query.KNN(k=%d): %v", trial, e.Name(), k, err)
				}
				compareKNN(fail, trial, e.Name()+"Ctx", k, gotCtx, wantKNN)
			}
		}

		// SPDQ: distance equality, error parity, and path validity (the
		// reported door sequence must be traversable and sum to the
		// distance — door choices between equal-length paths may differ).
		wantPath, wantErr := ref.SPD(p, q, nil)
		if wantErr == nil {
			if err := checkPathSum(sp, wantPath); err != nil {
				fail("trial %d: oracle path %v: %v", trial, wantPath.Doors, err)
			}
		} else if !errors.Is(wantErr, query.ErrUnreachable) {
			fail("trial %d: oracle SPD(%v -> %v): %v", trial, p, q, wantErr)
		}
		for _, e := range engines {
			gotPath, err := e.SPD(p, q, &st)
			comparePath(fail, sp, trial, e.Name(), gotPath, err, wantPath, wantErr)
			gotCtx, err := query.SPD(ctx, e, p, q, &st)
			comparePath(fail, sp, trial, e.Name()+"Ctx", gotCtx, err, wantPath, wantErr)
		}
	}
}

type failFunc func(format string, args ...any)

func compareKNN(fail failFunc, trial int, name string, k int, got, want []query.Neighbor) {
	if len(got) != len(want) {
		fail("trial %d: %s KNN(k=%d) returned %d neighbors, oracle %d",
			trial, name, k, len(got), len(want))
	}
	if !sameIDs(knnIDs(got), knnIDs(want)) {
		fail("trial %d: %s KNN(k=%d) ids %v, oracle %v",
			trial, name, k, knnIDs(got), knnIDs(want))
	}
	for i := range got {
		if math.Abs(got[i].Dist-want[i].Dist) > tol {
			fail("trial %d: %s KNN(k=%d)[%d] dist %.12g, oracle %.12g",
				trial, name, k, i, got[i].Dist, want[i].Dist)
		}
	}
}

func comparePath(fail failFunc, sp *indoor.Space, trial int, name string, got query.Path, err error, want query.Path, wantErr error) {
	if wantErr != nil {
		if !errors.Is(err, query.ErrUnreachable) {
			fail("trial %d: %s SPD err = %v, oracle %v", trial, name, err, wantErr)
		}
		return
	}
	if err != nil {
		fail("trial %d: %s SPD: %v (oracle dist %.12g)", trial, name, err, want.Dist)
	}
	if math.Abs(got.Dist-want.Dist) > tol {
		fail("trial %d: %s SPD dist %.12g, oracle %.12g (doors %v vs %v)",
			trial, name, got.Dist, want.Dist, got.Doors, want.Doors)
	}
	if err := checkPathSum(sp, got); err != nil {
		fail("trial %d: %s path %v: %v", trial, name, got.Doors, err)
	}
}

// snapRadii picks range radii that are safely away from any object
// distance: zero, a midpoint of a well-separated gap in the oracle's
// sorted distance ladder, and beyond the farthest reachable object.
func snapRadii(all []query.Neighbor, rng *rand.Rand) []float64 {
	radii := []float64{0}
	if len(all) == 0 {
		return append(radii, 1)
	}
	for try := 0; try < 12; try++ {
		i := rng.Intn(len(all))
		lo := all[i].Dist
		hi := math.Inf(1)
		if i+1 < len(all) {
			hi = all[i+1].Dist
		}
		if hi-lo > 1e-6 {
			r := lo + 1
			if !math.IsInf(hi, 1) {
				r = (lo + hi) / 2
			}
			radii = append(radii, r)
			break
		}
	}
	return append(radii, all[len(all)-1].Dist+1)
}

// snapKs picks kNN k values whose k-th and (k+1)-th oracle distances are
// well separated, so the cut point is unambiguous for every engine; it
// always includes k=1 and one k exceeding the object count.
func snapKs(all []query.Neighbor, objects int, rng *rand.Rand) []int {
	ks := []int{1, objects + 3}
	if len(all) > 1 {
		k := 1 + rng.Intn(len(all))
		for k < len(all) && all[k].Dist-all[k-1].Dist <= 1e-6 {
			k++
		}
		ks = append(ks, k)
	}
	return ks
}
