package query

import (
	"cmp"
	"container/heap"
	"math"
	"slices"
)

// TopK collects the k nearest objects seen so far, deduplicating by object
// id and keeping the minimum distance per object. It supports the kBound
// pruning of the paper's Algorithm 2: Bound() is the distance of the current
// k-th nearest candidate (+Inf until k distinct objects are known), so a
// search may stop expanding once its frontier exceeds Bound().
//
// Internally TopK is a max-heap with lazy deletion: improving an object's
// distance pushes a fresh entry and invalidates the old one.
type TopK struct {
	k    int
	best map[int32]float64
	h    tkHeap
}

// NewTopK returns a collector for the k nearest objects. k must be >= 1. n
// is the number of objects the caller can offer (its store size); only
// min(k, n) sizes the initial allocation, so a request-supplied k far
// beyond the object count costs nothing extra.
func NewTopK(k, n int) *TopK {
	return &TopK{k: k, best: make(map[int32]float64, min(k, n))}
}

// Offer considers object id at distance d. It returns true when the
// candidate entered (or tightened) the current top-k.
func (t *TopK) Offer(id int32, d float64) bool {
	if old, ok := t.best[id]; ok {
		if d >= old {
			return false
		}
		t.best[id] = d
		heap.Push(&t.h, tkEntry{id: id, dist: d})
		t.shrink()
		return true
	}
	if len(t.best) >= t.k {
		bd, bid := t.boundEntry()
		// Ties on the k-th distance break by object id: a new candidate at
		// exactly the bound enters only when its id beats the incumbent's,
		// so the surviving set is independent of offer order (and therefore
		// identical across engines with different iteration orders).
		if d > bd || (d == bd && id >= bid) {
			return false
		}
	}
	t.best[id] = d
	heap.Push(&t.h, tkEntry{id: id, dist: d})
	t.shrink()
	return true
}

// clean pops stale heap tops (entries superseded by a smaller distance).
func (t *TopK) clean() {
	for t.h.Len() > 0 {
		top := t.h[0]
		if d, ok := t.best[top.id]; ok && d == top.dist {
			return
		}
		heap.Pop(&t.h)
	}
}

// shrink evicts the farthest live entries while more than k objects are held.
func (t *TopK) shrink() {
	for len(t.best) > t.k {
		t.clean()
		top := heap.Pop(&t.h).(tkEntry)
		delete(t.best, top.id)
	}
}

// Bound returns the current k-th nearest distance, or +Inf while fewer than
// k distinct objects are known.
func (t *TopK) Bound() float64 {
	d, _ := t.boundEntry()
	return d
}

// boundEntry returns the current k-th nearest (distance, id) — the eviction
// candidate — or (+Inf, MaxInt32) while fewer than k objects are known.
func (t *TopK) boundEntry() (float64, int32) {
	if len(t.best) < t.k {
		return math.Inf(1), math.MaxInt32
	}
	t.clean()
	return t.h[0].dist, t.h[0].id
}

// Len returns the number of distinct objects currently held (at most k).
func (t *TopK) Len() int { return len(t.best) }

// Results returns the collected neighbors ordered by ascending distance,
// breaking ties by ascending id for determinism.
func (t *TopK) Results() []Neighbor {
	out := make([]Neighbor, 0, len(t.best))
	for id, d := range t.best {
		out = append(out, Neighbor{ID: id, Dist: d})
	}
	slices.SortFunc(out, func(a, b Neighbor) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.ID, b.ID))
	})
	return out
}

// SizeBytes estimates the collector's transient footprint.
func (t *TopK) SizeBytes() int64 {
	return int64(len(t.best))*24 + int64(cap(t.h))*16
}

type tkEntry struct {
	id   int32
	dist float64
}

// tkHeap is a max-heap on (distance, id): among equidistant entries the
// largest id surfaces first, making it the eviction candidate and the
// tie-break incumbent consulted by Offer.
type tkHeap []tkEntry

func (h tkHeap) Len() int { return len(h) }
func (h tkHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist > h[j].dist
	}
	return h[i].id > h[j].id
}
func (h tkHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *tkHeap) Push(x interface{}) { *h = append(*h, x.(tkEntry)) }
func (h *tkHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
