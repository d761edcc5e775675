package query

import (
	"context"
	"errors"
	"testing"

	"indoorsq/internal/indoor"
	"indoorsq/internal/obs"
)

func TestBeginDisabledPathIsFree(t *testing.T) {
	// No binding on the context: Begin must behave exactly like Track —
	// same Stats pointer, a zero Observation, nothing allocated for
	// observation.
	var st Stats
	got, o := Begin(context.Background(), "e", obs.OpRange, &st)
	if got != &st {
		t.Fatal("Begin changed the Stats pointer on the disabled path")
	}
	if o != (Observation{}) {
		t.Fatal("Begin armed an observation without a binding")
	}
	o.End(nil) // a no-op
	if got, o := Begin(context.Background(), "e", obs.OpRange, nil); got != nil || o != (Observation{}) {
		t.Fatal("nil Stats on an untracked, unobserved context should stay nil")
	}
	if got, o := Begin(nil, "e", obs.OpRange, &st); got != &st || o != (Observation{}) {
		t.Fatal("nil context should be a no-op")
	}
}

func TestBeginObservesRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	ctx := obs.WithRegistry(context.Background(), reg)

	var st Stats
	st.Door() // pre-existing counts must not leak into the query's deltas
	st.Alloc(64)
	st.Cache(true)
	pre := st

	got, o := Begin(ctx, "stub", obs.OpKNN, &st)
	if got != &st || o.st == nil {
		t.Fatal("Begin should keep the Stats pointer and arm an observation")
	}
	ser := reg.Series("stub", obs.OpKNN)
	if ser.InFlight.Load() != 1 {
		t.Fatalf("in-flight = %d during the query", ser.InFlight.Load())
	}
	for i := 0; i < 5; i++ {
		st.Door()
	}
	st.Alloc(100)
	st.Cache(true)
	st.Cache(false)
	o.End(nil)

	if ser.InFlight.Load() != 0 {
		t.Fatalf("in-flight = %d after End", ser.InFlight.Load())
	}
	if ser.Count.Load() != 1 || ser.Errs.Load() != 0 {
		t.Fatalf("count/errs = %d/%d", ser.Count.Load(), ser.Errs.Load())
	}
	if got := ser.VisitedDoors.Load(); got != 5 {
		t.Fatalf("visited doors delta = %d, want 5 (pre-existing %d excluded)", got, pre.VisitedDoors)
	}
	if got := ser.WorkBytes.Load(); got != 100 {
		t.Fatalf("work delta = %d, want 100", got)
	}
	if got := ser.CacheHits.Load(); got != 1 {
		t.Fatalf("cache hits delta = %d, want 1", got)
	}
	if got := ser.CacheMisses.Load(); got != 1 {
		t.Fatalf("cache misses delta = %d, want 1", got)
	}
	if got := ser.Latency.Count(); got != 1 {
		t.Fatalf("latency count = %d", got)
	}

	// A failed query increments Errs.
	_, o2 := Begin(ctx, "stub", obs.OpKNN, &st)
	o2.End(errors.New("boom"))
	if ser.Errs.Load() != 1 {
		t.Fatalf("errs = %d after failure", ser.Errs.Load())
	}
}

func TestBeginTraceSummaryAndSpans(t *testing.T) {
	tr := obs.NewTrace()
	ctx := obs.WithTrace(context.Background(), tr)

	st, o := Begin(ctx, "stub", obs.OpSPD, nil)
	if st == nil || o.st == nil {
		t.Fatal("Begin with a trace binding should allocate Stats and arm an observation")
	}
	end := st.Span(obs.StageExpand)
	st.Door()
	st.Alloc(48)
	end()
	o.End(ErrUnreachable)

	qs := tr.Queries()
	if len(qs) != 1 {
		t.Fatalf("trace queries = %d", len(qs))
	}
	q := qs[0]
	if q.Engine != "stub" || q.Op != obs.OpSPD {
		t.Fatalf("summary = %+v", q)
	}
	if q.Err != ErrUnreachable.Error() {
		t.Fatalf("summary err = %q", q.Err)
	}
	if q.VisitedDoors != 1 || q.WorkBytes != 48 || q.PeakWorkBytes != 48 {
		t.Fatalf("summary costs = %+v", q)
	}
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Stage != obs.StageExpand {
		t.Fatalf("spans = %+v", spans)
	}

	// End must disarm the trace so a pooled Stats reused afterwards does
	// not keep writing spans into a finished trace.
	if st.tr != nil {
		t.Fatal("End did not clear the trace from the Stats")
	}
	st.Span(obs.StageHost)()
	if got := len(tr.Spans()); got != 1 {
		t.Fatalf("span after done leaked into the trace: %d spans", got)
	}
}

// TestObservedQueryAllocatesNothing pins the registry-observed path of
// query.Range at zero allocations beyond the engine's own: arming and
// ending the observation must not move anything to the heap.
func TestObservedQueryAllocatesNothing(t *testing.T) {
	ctx := obs.WithRegistry(context.Background(), obs.NewRegistry())
	var e noAllocEngine
	var st Stats
	run := func() {
		st = Stats{}
		if _, err := Range(ctx, e, indoor.Point{}, 1, &st); err != nil {
			t.Fatal(err)
		}
	}
	run() // creates the series
	if got := testing.AllocsPerRun(200, run); got != 0 {
		t.Fatalf("observed Range allocates %v objects per query, want 0", got)
	}
}

// noAllocEngine answers every query with nothing, allocating nothing.
type noAllocEngine struct{}

func (noAllocEngine) Name() string        { return "noalloc" }
func (noAllocEngine) SetObjects([]Object) {}
func (noAllocEngine) SizeBytes() int64    { return 0 }
func (noAllocEngine) Range(indoor.Point, float64, *Stats) ([]int32, error) {
	return nil, nil
}
func (noAllocEngine) KNN(indoor.Point, int, *Stats) ([]Neighbor, error) { return nil, nil }
func (noAllocEngine) SPD(indoor.Point, indoor.Point, *Stats) (Path, error) {
	return Path{}, nil
}

func TestSpanUntracedIsNop(t *testing.T) {
	var st Stats
	st.Span(obs.StageHost)() // must not panic or record anywhere
	var nilStats *Stats
	nilStats.Span(obs.StageRefine)()
}
