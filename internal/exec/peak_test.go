package exec_test

import (
	"context"
	"testing"

	"indoorsq/internal/exec"
	"indoorsq/internal/indoor"
	"indoorsq/internal/query"
)

// allocEngine is a stub whose every query allocates exactly allocBytes of
// transient working set and expands one door.
type allocEngine struct{ allocBytes int64 }

func (e allocEngine) Name() string                   { return "alloc" }
func (e allocEngine) SetObjects(objs []query.Object) {}
func (e allocEngine) SizeBytes() int64               { return 0 }

func (e allocEngine) work(st *query.Stats) {
	st.Door()
	st.Alloc(e.allocBytes)
}

func (e allocEngine) Range(p indoor.Point, r float64, st *query.Stats) ([]int32, error) {
	e.work(st)
	return nil, nil
}

func (e allocEngine) KNN(p indoor.Point, k int, st *query.Stats) ([]query.Neighbor, error) {
	e.work(st)
	return nil, nil
}

func (e allocEngine) SPD(p, q indoor.Point, st *query.Stats) (query.Path, error) {
	e.work(st)
	return query.Path{}, nil
}

// TestBatchPeakMergesWithMax is the regression test for the sharded-stats
// peak folding: the ops fanned over Map each touch the same fixed working
// set, so the merged PeakWorkBytes must equal the single-query peak no
// matter how many workers the ops fan over — while WorkBytes still sums.
// The old Add folded peaks with +, reporting 8 ops as 8× the actual
// high-water mark.
func TestBatchPeakMergesWithMax(t *testing.T) {
	const bytesPerOp = int64(1 << 20)
	eng := allocEngine{allocBytes: bytesPerOp}
	ops := make([]exec.Op, 8)
	for i := range ops {
		ops[i] = exec.Op{Kind: exec.SPDQ}
	}
	for _, workers := range []int{1, 4, 8} {
		setProcs(t, workers)
		results, merged := runOps(context.Background(), eng, ops)
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d op %d: %v", workers, i, r.Err)
			}
			if r.Stats.PeakWorkBytes != bytesPerOp {
				t.Fatalf("workers=%d op %d: per-op peak = %d, want %d",
					workers, i, r.Stats.PeakWorkBytes, bytesPerOp)
			}
		}
		if got := merged.WorkBytes; got != bytesPerOp*int64(len(ops)) {
			t.Fatalf("workers=%d: total work = %d, want sum %d",
				workers, got, bytesPerOp*int64(len(ops)))
		}
		if got := merged.PeakWorkBytes; got != bytesPerOp {
			t.Fatalf("workers=%d: merged peak = %d, want single-worker peak %d (peaks must fold with max, not +)",
				workers, got, bytesPerOp)
		}
	}
}

// TestStatsAddPeakMax pins the merge rule at the query.Stats level, where
// Map's shard folding gets it from.
func TestStatsAddPeakMax(t *testing.T) {
	var a query.Stats
	a.Alloc(100)
	var b query.Stats
	b.Alloc(250)
	var merged query.Stats
	merged.Add(a)
	merged.Add(b)
	if merged.WorkBytes != 350 {
		t.Fatalf("work = %d, want 350", merged.WorkBytes)
	}
	if merged.PeakWorkBytes != 250 {
		t.Fatalf("peak = %d, want max 250", merged.PeakWorkBytes)
	}
}
