package enginetest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"indoorsq/internal/cindex"
	"indoorsq/internal/dataset"
	"indoorsq/internal/indoor"
	"indoorsq/internal/moving"
	"indoorsq/internal/oracle"
	"indoorsq/internal/query"
	"indoorsq/internal/snapshot/bundle"
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
	// The benchmark venues' boundary corpora. The CPH wall point
	// (1750, 475) is where CINDEX's R-tree candidate order once picked a
	// different host than the floor scan: its 5-NN answered object 47 at
	// 247.11 instead of object 23 at 42.09.
	for _, ds := range []string{"CPH", "MZB", "HSM"} {
		ds := ds
		t.Run("boundary="+ds, func(t *testing.T) {
			t.Parallel()
			info := dataset.Get(ds)
			var engines []query.Engine
			for _, name := range bundle.EngineNames {
				eng, err := bundle.NewEngine(name, info.Space, bundle.Options{Gamma: info.Gamma})
				if err != nil {
					t.Fatal(err)
				}
				engines = append(engines, eng)
			}
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("%s: %s", ds, fmt.Sprintf(format, args...))
			}
			var must []indoor.Point
			if ds == "CPH" {
				must = append(must, indoor.At(1750, 475, 0))
			}
			checkBoundary(fail, info.Space, spacegen.Objects(info.Space, 1, 64), engines,
				rand.New(rand.NewSource(int64(len(ds)))), 40, must...)
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
	checkBoundary(fail, sp, objs, engines, rng, 4)
}

// checkBoundary runs sp's boundary corpus (BoundaryPoints): CINDEX's R-tree
// host lookup must pick HostPartition's host at every point, and at answers
// points spread over the corpus (plus every must point) each engine's
// range, kNN and SPD answers, and a moving.Stream's range and kNN monitor
// results, must equal the oracle's.
func checkBoundary(fail failFunc, sp *indoor.Space, objs []query.Object, engines []query.Engine, rng *rand.Rand, answers int, must ...indoor.Point) {
	pts := BoundaryPoints(sp)
	for _, e := range engines {
		cx, ok := e.(*cindex.Index)
		if !ok {
			continue
		}
		for _, p := range pts {
			want, _ := sp.HostPartition(p)
			if got, _ := cx.Host(p); got != want {
				fail("boundary %v: CIndex host %d, HostPartition %d", p, got, want)
			}
		}
	}
	ref := oracle.New(sp)
	ref.SetObjects(objs)
	for _, e := range engines {
		e.SetObjects(objs)
	}
	stream := moving.NewStream(sp, moving.StreamOptions{})
	defer stream.Close()
	ups := make([]moving.Update, len(objs))
	for i, o := range objs {
		ups[i] = moving.Update{ID: o.ID, Loc: o.Loc, Part: o.Part, T: 1}
	}
	if _, err := stream.ApplyBatch(ups); err != nil {
		fail("boundary stream seed: %v", err)
	}
	sample := append([]indoor.Point(nil), must...)
	for i := 0; i < answers && len(pts) > 0; i++ {
		sample = append(sample, pts[i*len(pts)/answers])
	}
	ctx := context.Background()
	var st query.Stats
	for i, p := range sample {
		all, err := ref.AllDists(p)
		if err != nil {
			fail("boundary %v: oracle AllDists: %v", p, err)
		}
		radii := snapRadii(all, rng)
		for _, r := range radii {
			want, err := ref.Range(p, r, nil)
			if err != nil {
				fail("boundary %v: oracle Range(r=%g): %v", p, r, err)
			}
			for _, e := range engines {
				if got, err := query.Range(ctx, e, p, r, &st); err != nil || !sameIDs(got, want) {
					fail("boundary %v: %s Range(r=%g) = %v (%v), oracle %v", p, e.Name(), r, got, err, want)
				}
			}
		}
		ks := snapKs(all, len(objs), rng)
		for _, k := range ks {
			want, err := ref.KNN(p, k, nil)
			if err != nil {
				fail("boundary %v: oracle KNN(k=%d): %v", p, k, err)
			}
			for _, e := range engines {
				got, err := query.KNN(ctx, e, p, k, &st)
				if err != nil {
					fail("boundary %v: %s KNN(k=%d): %v", p, e.Name(), k, err)
				}
				compareKNN(fail, i, fmt.Sprintf("boundary %v %s", p, e.Name()), k, got, want)
			}
		}
		q := pts[rng.Intn(len(pts))]
		wantPath, wantErr := ref.SPD(p, q, nil)
		for _, e := range engines {
			got, err := query.SPD(ctx, e, p, q, &st)
			comparePath(fail, sp, i, fmt.Sprintf("boundary %v->%v %s", p, q, e.Name()), got, err, wantPath, wantErr)
		}

		// The stream hosts a monitor through HostPartition too.
		r, k := radii[len(radii)/2], ks[len(ks)-1]
		rq, kq := int32(2*i), int32(2*i+1)
		if _, err := stream.Register(rq, p, r, 1); err != nil {
			fail("boundary %v: stream Register: %v", p, err)
		}
		if _, err := stream.RegisterKNN(kq, p, k, 1); err != nil {
			fail("boundary %v: stream RegisterKNN: %v", p, err)
		}
		wantIDs, _ := ref.Range(p, r, nil)
		if got := stream.Result(rq); !sameIDs(got, wantIDs) {
			fail("boundary %v: stream range(r=%g) %v, oracle %v", p, r, got, wantIDs)
		}
		wantKNN, _ := ref.KNN(p, k, nil)
		compareKNN(fail, i, fmt.Sprintf("boundary %v stream", p), k, stream.Neighbors(kq), wantKNN)
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
