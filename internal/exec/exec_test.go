package exec_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"indoorsq/internal/exec"
	"indoorsq/internal/idmodel"
	"indoorsq/internal/indoor"
	"indoorsq/internal/query"
	"indoorsq/internal/testspaces"
)

func testEngineAndOps() (query.Engine, []exec.Op) {
	sp := testspaces.RandomGrid(6, 4, 4, 2, 6, 0.25)
	eng := idmodel.New(sp)
	var objs []query.Object
	id := int32(0)
	for i := 0; i < sp.NumPartitions(); i++ {
		v := sp.Partition(indoor.PartitionID(i))
		if v.Kind == indoor.Staircase {
			continue
		}
		c := v.MBR.Center()
		objs = append(objs, query.Object{ID: id, Loc: indoor.At(c.X, c.Y, v.Floor), Part: v.ID})
		id++
	}
	eng.SetObjects(objs)

	pts := []indoor.Point{
		indoor.At(5, 5, 0), indoor.At(15, 25, 0), indoor.At(25, 15, 1),
		indoor.At(35, 5, 1), indoor.At(5, 35, 0),
	}
	var ops []exec.Op
	for i, p := range pts {
		ops = append(ops,
			exec.Op{Kind: exec.RangeQ, P: p, R: 30},
			exec.Op{Kind: exec.KNNQ, P: p, K: 4},
			exec.Op{Kind: exec.SPDQ, P: p, Q: pts[(i+1)%len(pts)]})
	}
	return eng, ops
}

// setProcs sets GOMAXPROCS to w for the rest of the test; t.Cleanup
// restores the previous value.
func setProcs(t *testing.T, w int) {
	prev := runtime.GOMAXPROCS(w)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// runOps runs ops on eng under ctx through exec.Map and exec.Do, each
// result in its op's slot, and returns the results with the merged Stats.
func runOps(ctx context.Context, eng query.Engine, ops []exec.Op) ([]exec.Result, query.Stats) {
	results := make([]exec.Result, len(ops))
	merged, _ := exec.Map(len(ops), func(i int, st *query.Stats) error {
		results[i] = exec.Do(ctx, eng, ops[i])
		st.Add(results[i].Stats)
		return nil
	})
	return results, merged
}

// TestRunMatchesSequential asserts ops fanned over Map through Do return
// the same answers and the same merged Stats as running them one by one on
// the engine.
func TestRunMatchesSequential(t *testing.T) {
	eng, ops := testEngineAndOps()

	// Sequential reference.
	var seqStats query.Stats
	type ref struct {
		ids  []int32
		nn   []query.Neighbor
		dist float64
		err  error
	}
	refs := make([]ref, len(ops))
	for i, op := range ops {
		var st query.Stats
		switch op.Kind {
		case exec.RangeQ:
			refs[i].ids, refs[i].err = eng.Range(op.P, op.R, &st)
		case exec.KNNQ:
			refs[i].nn, refs[i].err = eng.KNN(op.P, op.K, &st)
		case exec.SPDQ:
			var path query.Path
			path, refs[i].err = eng.SPD(op.P, op.Q, &st)
			refs[i].dist = path.Dist
		}
		seqStats.Add(st)
	}

	for _, workers := range []int{1, 4} {
		setProcs(t, workers)
		results, merged := runOps(context.Background(), eng, ops)
		if len(results) != len(ops) {
			t.Fatalf("workers=%d: %d results for %d ops", workers, len(results), len(ops))
		}
		for i, r := range results {
			if (r.Err == nil) != (refs[i].err == nil) {
				t.Fatalf("workers=%d op %d: err %v vs reference %v", workers, i, r.Err, refs[i].err)
			}
			switch ops[i].Kind {
			case exec.RangeQ:
				if fmt.Sprint(r.IDs) != fmt.Sprint(refs[i].ids) {
					t.Fatalf("workers=%d op %d: Range %v != %v", workers, i, r.IDs, refs[i].ids)
				}
			case exec.KNNQ:
				if len(r.Neighbors) != len(refs[i].nn) {
					t.Fatalf("workers=%d op %d: KNN size mismatch", workers, i)
				}
				for j := range r.Neighbors {
					if math.Abs(r.Neighbors[j].Dist-refs[i].nn[j].Dist) > 1e-9 {
						t.Fatalf("workers=%d op %d: KNN dist mismatch", workers, i)
					}
				}
			case exec.SPDQ:
				if r.Err == nil && math.Abs(r.Path.Dist-refs[i].dist) > 1e-9 {
					t.Fatalf("workers=%d op %d: SPD %g != %g", workers, i, r.Path.Dist, refs[i].dist)
				}
			}
		}
		// Merged shards must equal the sequential sums exactly.
		if merged != seqStats {
			t.Fatalf("workers=%d: merged stats %+v != sequential %+v", workers, merged, seqStats)
		}
		// And the merged counters must equal the sum of per-op stats.
		var fromOps query.Stats
		var took time.Duration
		for _, r := range results {
			fromOps.Add(r.Stats)
			took += r.Elapsed
		}
		if merged != fromOps {
			t.Fatalf("workers=%d: merged stats %+v != per-op sum %+v", workers, merged, fromOps)
		}
		if took <= 0 {
			t.Fatalf("workers=%d: non-positive summed latency %v", workers, took)
		}
	}
}

// TestMapShardsMergeExactly asserts worker-sharded Stats fold to the exact
// sequential totals.
func TestMapShardsMergeExactly(t *testing.T) {
	const n = 137
	for _, workers := range []int{1, 3, 16} {
		setProcs(t, workers)
		st, err := exec.Map(n, func(i int, st *query.Stats) error {
			st.Door()
			st.Alloc(int64(i))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.VisitedDoors != n || st.WorkBytes != int64(n*(n-1)/2) {
			t.Fatalf("workers=%d: merged %+v, want %d doors / %d bytes",
				workers, st, n, n*(n-1)/2)
		}
	}
}

// TestMapFirstErrorDeterministic asserts the reported error is the
// lowest-index failure regardless of scheduling, and that later items
// still run.
func TestMapFirstErrorDeterministic(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	for _, workers := range []int{1, 8} {
		var ran atomic.Int32
		setProcs(t, workers)
		_, err := exec.Map(50, func(i int, st *query.Stats) error {
			ran.Add(1)
			switch i {
			case 7:
				return errA
			case 31:
				return errB
			}
			return nil
		})
		if !errors.Is(err, errA) {
			t.Fatalf("workers=%d: err %v, want lowest-index error %v", workers, err, errA)
		}
		if got := ran.Load(); got != 50 {
			t.Fatalf("workers=%d: ran %d of 50 items", workers, got)
		}
	}
}

// TestMapRunsEveryIndexOnce asserts Map calls fn exactly once per index
// for batch sizes around the worker count, and that the merged Stats see
// every call.
func TestMapRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		setProcs(t, workers)
		for _, n := range []int{1, workers - 1, workers, workers + 1, 1000} {
			if n < 1 {
				continue
			}
			calls := make([]atomic.Int32, n)
			st, err := exec.Map(n, func(i int, st *query.Stats) error {
				calls[i].Add(1)
				st.Door()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
			if st.VisitedDoors != n {
				t.Fatalf("workers=%d n=%d: merged %d doors, want %d", workers, n, st.VisitedDoors, n)
			}
		}
	}
}

// TestMapNested runs a Map inside every fn of an outer Map: the caller
// works as one of the workers, so nesting cannot starve and both levels
// complete with every index run once.
func TestMapNested(t *testing.T) {
	setProcs(t, 4)
	var inner atomic.Int64
	st, err := exec.Map(16, func(i int, st *query.Stats) error {
		sub, err := exec.Map(i+1, func(j int, st *query.Stats) error {
			inner.Add(1)
			st.Door()
			return nil
		})
		st.Add(sub)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 16 * 17 / 2; inner.Load() != int64(want) || st.VisitedDoors != want {
		t.Fatalf("nested Map ran %d inner calls, merged %d doors; want %d", inner.Load(), st.VisitedDoors, want)
	}
}

// TestMapFirstErrorAcrossWorkers makes the two failing indexes land on
// different workers (index 7 waits until index 31 has failed, so another
// worker must claim 31) and asserts the lower index still wins the merge.
func TestMapFirstErrorAcrossWorkers(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	for _, workers := range []int{2, 8} {
		failed31 := make(chan struct{})
		setProcs(t, workers)
		_, err := exec.Map(50, func(i int, st *query.Stats) error {
			switch i {
			case 7:
				<-failed31
				return errA
			case 31:
				close(failed31)
				return errB
			}
			return nil
		})
		if !errors.Is(err, errA) {
			t.Fatalf("workers=%d: err %v, want lowest-index error %v", workers, err, errA)
		}
	}
}
