package query

import (
	"slices"
	"sync"
)

// IDSet collects the distinct object ids of one range answer. It keeps one
// epoch-stamped mark per ObjectStore slot, so a membership test is one
// compare and a pooled set resets by advancing its epoch instead of clearing
// its marks, plus the collected ids in acceptance order. Acquire one per
// query with NewIDSet, copy the answer out with Sorted, then Release it.
type IDSet struct {
	mark  []uint32 // per store slot: the epoch in which it was collected
	epoch uint32
	ids   []int32
}

var idSets sync.Pool

// NewIDSet returns an empty set, pooled when possible, for a store of n
// slots (ObjectStore.Len).
func NewIDSet(n int) *IDSet {
	s, ok := idSets.Get().(*IDSet)
	if !ok {
		s = &IDSet{}
	}
	s.reset(n)
	return s
}

// reset empties s for a store of n slots by starting a new epoch; when the
// epoch counter wraps, the marks are cleared so no stale stamp can match.
func (s *IDSet) reset(n int) {
	if len(s.mark) < n {
		// Fresh marks are zero, which no live epoch ever equals.
		s.mark = append(s.mark, make([]uint32, n-len(s.mark))...)
	}
	s.epoch++
	if s.epoch == 0 {
		clear(s.mark)
		s.epoch = 1
	}
	s.ids = s.ids[:0]
}

// Release hands the set back to the pool; s must not be used afterwards.
func (s *IDSet) Release() { idSets.Put(s) }

// has reports whether store slot i was collected in this epoch.
func (s *IDSet) has(i int32) bool { return s.mark[i] == s.epoch }

// add collects object id at store slot i.
func (s *IDSet) add(i, id int32) {
	s.mark[i] = s.epoch
	s.ids = append(s.ids, id)
}

// Len returns the number of distinct ids collected.
func (s *IDSet) Len() int { return len(s.ids) }

// Sorted returns the collected ids in ascending order, in a new slice the
// caller owns (non-nil even when empty).
func (s *IDSet) Sorted() []int32 {
	out := make([]int32, len(s.ids))
	copy(out, s.ids)
	slices.Sort(out)
	return out
}
