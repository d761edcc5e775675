package query

import (
	"math"
	"slices"
	"testing"

	"indoorsq/internal/indoor"
	"indoorsq/internal/testspaces"
)

// hallStore holds n objects spread along the strip fixture's hallway.
func hallStore(f *testspaces.Strip, n int) *ObjectStore {
	objs := make([]Object, n)
	for i := range objs {
		objs[i] = Object{ID: int32(100 + i), Loc: indoor.At(0.5+float64(i%19), 5, 0), Part: f.Hall}
	}
	return NewObjectStore(f.Space, objs)
}

// TestIDSetEpochWrap drives a set's epoch to the top of its range: the
// reset that wraps it must clear the marks, or a slot stamped 2^32 queries
// earlier would read as already collected and drop out of the answer.
func TestIDSetEpochWrap(t *testing.T) {
	f := testspaces.NewStrip()
	st := hallStore(f, 3)
	s := &IDSet{}
	s.reset(st.Len())
	st.CollectScan(f.Space, f.Hall, indoor.At(0, 5, 0), 100, s) // marks at epoch 1
	s.epoch = math.MaxUint32
	s.add(1, 101) // and one at the last epoch before the wrap
	s.reset(st.Len())
	if s.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", s.epoch)
	}
	for i := range int32(st.Len()) {
		if s.has(i) {
			t.Fatalf("slot %d still marked after the wrap", i)
		}
	}
	st.CollectScan(f.Space, f.Hall, indoor.At(0, 5, 0), 100, s)
	if got := s.Sorted(); !slices.Equal(got, []int32{100, 101, 102}) {
		t.Fatalf("after the wrap: %v, want [100 101 102]", got)
	}
}

// TestIDSetGrowsWithStore reuses a set sized for a small store after
// ObjectStore.Insert grew the store past the set's mark slice: the new slots
// must be addressable and start unmarked.
func TestIDSetGrowsWithStore(t *testing.T) {
	f := testspaces.NewStrip()
	st := hallStore(f, 2)
	s := &IDSet{}
	s.reset(st.Len())
	st.CollectScan(f.Space, f.Hall, indoor.At(0, 5, 0), 100, s)
	if s.Len() != 2 || len(s.mark) != 2 {
		t.Fatalf("small store: %d ids, %d marks", s.Len(), len(s.mark))
	}
	for i := range 40 {
		if !st.Insert(f.Space, Object{ID: int32(200 + i), Loc: indoor.At(0.5+float64(i%19), 6, 0), Part: f.Hall}) {
			t.Fatalf("insert %d refused", i)
		}
	}
	s.reset(st.Len())
	if len(s.mark) != st.Len() {
		t.Fatalf("marks %d, store %d slots", len(s.mark), st.Len())
	}
	st.CollectScan(f.Space, f.Hall, indoor.At(0, 5, 0), 100, s)
	if s.Len() != st.Len() {
		t.Fatalf("collected %d of %d objects after the store grew", s.Len(), st.Len())
	}

	// The same through the pool: whichever set NewIDSet hands out covers
	// the grown store.
	p := NewIDSet(st.Len())
	defer p.Release()
	st.CollectScan(f.Space, f.Hall, indoor.At(0, 5, 0), 100, p)
	if p.Len() != st.Len() {
		t.Fatalf("pooled set collected %d of %d objects", p.Len(), st.Len())
	}
}
