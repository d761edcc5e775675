package obs_test

// Registry/trace exactness under concurrent load. This file is part of
// the race-detector suite (make race runs ./internal/obs/ with -race): many
// exec.Map workers hammer one registry and one shared trace through
// exec.Do, and every counter, histogram bucket, and span must still come
// out exact.

import (
	"context"
	"runtime"
	"testing"

	"indoorsq/internal/exec"
	"indoorsq/internal/indoor"
	"indoorsq/internal/obs"
	"indoorsq/internal/query"
)

// stubEngine is a deterministic engine: every query records a fixed number
// of doors, bytes, cache probes, and one trace span, so the aggregate
// counters after a concurrent batch are exactly predictable.
type stubEngine struct{}

const (
	stubRangeDoors = 5
	stubRangeBytes = 100
	stubKNNDoors   = 3
	stubKNNBytes   = 200
	stubSPDDoors   = 7
	stubSPDBytes   = 300
)

func (stubEngine) Name() string                   { return "stub" }
func (stubEngine) SetObjects(objs []query.Object) {}
func (stubEngine) SizeBytes() int64               { return 0 }

func (stubEngine) Range(p indoor.Point, r float64, st *query.Stats) ([]int32, error) {
	defer st.Span(obs.StageExpand)()
	for i := 0; i < stubRangeDoors; i++ {
		st.Door()
	}
	st.Alloc(stubRangeBytes)
	st.Cache(true)
	return []int32{1}, nil
}

func (stubEngine) KNN(p indoor.Point, k int, st *query.Stats) ([]query.Neighbor, error) {
	defer st.Span(obs.StageProbe)()
	for i := 0; i < stubKNNDoors; i++ {
		st.Door()
	}
	st.Alloc(stubKNNBytes)
	st.Cache(false)
	return []query.Neighbor{{ID: 1, Dist: 1}}, nil
}

func (stubEngine) SPD(p, q indoor.Point, st *query.Stats) (query.Path, error) {
	defer st.Span(obs.StageRefine)()
	for i := 0; i < stubSPDDoors; i++ {
		st.Door()
	}
	st.Alloc(stubSPDBytes)
	st.Cache(true)
	st.Cache(false)
	return query.Path{Dist: 1}, nil
}

func TestRegistryExactUnderConcurrentPool(t *testing.T) {
	const perKind = 32
	reg := obs.NewRegistry()
	tr := obs.NewTrace()
	var ops []exec.Op
	for i := 0; i < perKind; i++ {
		ops = append(ops,
			exec.Op{Kind: exec.RangeQ, R: 10},
			exec.Op{Kind: exec.KNNQ, K: 3},
			exec.Op{Kind: exec.SPDQ})
	}
	prev := runtime.GOMAXPROCS(8)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	// The trace rides the context; WithRegistry layers the registry on top
	// without displacing it.
	ctx := obs.WithRegistry(obs.WithTrace(context.Background(), tr), reg)
	results := make([]exec.Result, len(ops))
	merged, _ := exec.Map(len(ops), func(i int, st *query.Stats) error {
		results[i] = exec.Do(ctx, stubEngine{}, ops[i])
		st.Add(results[i].Stats)
		return nil
	})
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("op %d: %v", i, r.Err)
		}
	}

	for _, want := range []struct {
		op    string
		doors int64
		bytes int64
		hits  int64
		miss  int64
	}{
		{obs.OpRange, stubRangeDoors, stubRangeBytes, 1, 0},
		{obs.OpKNN, stubKNNDoors, stubKNNBytes, 0, 1},
		{obs.OpSPD, stubSPDDoors, stubSPDBytes, 1, 1},
	} {
		s := reg.Series("stub", want.op)
		if got := s.Count.Load(); got != perKind {
			t.Fatalf("%s count = %d, want %d", want.op, got, perKind)
		}
		if got := s.Errs.Load(); got != 0 {
			t.Fatalf("%s errs = %d", want.op, got)
		}
		if got := s.InFlight.Load(); got != 0 {
			t.Fatalf("%s in-flight = %d after batch drained", want.op, got)
		}
		if got := s.VisitedDoors.Load(); got != perKind*want.doors {
			t.Fatalf("%s visited doors = %d, want %d", want.op, got, perKind*want.doors)
		}
		if got := s.WorkBytes.Load(); got != perKind*want.bytes {
			t.Fatalf("%s work bytes = %d, want %d", want.op, got, perKind*want.bytes)
		}
		if got := s.PeakWorkBytes.Load(); got != want.bytes {
			t.Fatalf("%s peak work bytes = %d, want single-query %d", want.op, got, want.bytes)
		}
		if got := s.CacheHits.Load(); got != perKind*want.hits {
			t.Fatalf("%s cache hits = %d, want %d", want.op, got, perKind*want.hits)
		}
		if got := s.CacheMisses.Load(); got != perKind*want.miss {
			t.Fatalf("%s cache misses = %d, want %d", want.op, got, perKind*want.miss)
		}
		if got := s.Latency.Count(); got != perKind {
			t.Fatalf("%s latency count = %d, want %d", want.op, got, perKind)
		}
		var inBuckets int64
		for i := 0; i <= obs.NumBuckets; i++ {
			inBuckets += s.Latency.Bucket(i)
		}
		if inBuckets != perKind {
			t.Fatalf("%s histogram buckets sum to %d, want %d", want.op, inBuckets, perKind)
		}
	}

	// The shared trace saw every query and every span exactly once.
	if got := len(tr.Queries()); got != 3*perKind {
		t.Fatalf("trace queries = %d, want %d", got, 3*perKind)
	}
	if got := len(tr.Spans()); got != 3*perKind {
		t.Fatalf("trace spans = %d, want %d", got, 3*perKind)
	}
	perOp := map[string]int{}
	for _, q := range tr.Queries() {
		if q.Engine != "stub" || q.Err != "" {
			t.Fatalf("unexpected query summary %+v", q)
		}
		perOp[q.Op]++
	}
	for _, op := range []string{obs.OpRange, obs.OpKNN, obs.OpSPD} {
		if perOp[op] != perKind {
			t.Fatalf("trace %s summaries = %d, want %d", op, perOp[op], perKind)
		}
	}

	// The merged stats fold peaks with max: the overall peak is the
	// largest single query, not a sum.
	if merged.PeakWorkBytes != stubSPDBytes {
		t.Fatalf("merged peak = %d, want %d", merged.PeakWorkBytes, stubSPDBytes)
	}
}
