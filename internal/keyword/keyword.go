// Package keyword implements the spatial-keyword extension of the paper's
// Sec. 7: objects carry keywords, and the model/indexes are augmented with
// keyword mappings to answer
//
//   - boolean keyword kNN queries — the k nearest objects containing every
//     query keyword (as supported on VIP-TREE by Shao et al., TKDE 2020);
//   - boolean keyword range queries;
//   - keyword-aware routing — the shortest walk from p to q that visits,
//     for every query keyword, an object carrying it (the indoor top-k
//     keyword-aware routing of Feng et al., ICDE 2020, restricted to the
//     single best route).
//
// Routing runs a Dijkstra over (door, covered-keyword-set) states: crossing
// a partition may detour through one of its keyword-bearing objects, paying
// the intra-partition walk to the object and onward to the exit door. With
// bidirectional doors, repeated traversal states make multi-object detours
// inside one partition reachable as well, so the returned walk is optimal
// for up to MaxRouteWords keywords.
package keyword

import (
	"context"
	"fmt"
	"math"
	"sort"

	"indoorsq/internal/idmodel"
	"indoorsq/internal/indoor"
	"indoorsq/internal/pq"
	"indoorsq/internal/query"
)

// MaxRouteWords bounds the keyword count of Route (the state space grows as
// doors x 2^words).
const MaxRouteWords = 12

// Tagged is a static object with keywords.
type Tagged struct {
	query.Object
	Words []string
}

// Index is the keyword layer over an IDMODEL base engine.
type Index struct {
	sp   *indoor.Space
	base *idmodel.Model

	vocab    map[string]int32
	words    []string
	objWords [][]int32         // per object (by store order), sorted word ids
	inverted map[int32][]int32 // word id -> object ids
	byID     map[int32]int     // object id -> index into objWords/objs
	objs     []Tagged
}

// New builds the keyword layer and installs the objects into the base
// engine.
func New(base *idmodel.Model, sp *indoor.Space, objs []Tagged) *Index {
	x := &Index{
		sp:       sp,
		base:     base,
		vocab:    make(map[string]int32),
		inverted: make(map[int32][]int32),
		byID:     make(map[int32]int, len(objs)),
		objs:     append([]Tagged(nil), objs...),
	}
	plain := make([]query.Object, len(objs))
	for i, o := range x.objs {
		plain[i] = o.Object
		x.byID[o.ID] = i
		ids := make([]int32, 0, len(o.Words))
		for _, w := range o.Words {
			id, ok := x.vocab[w]
			if !ok {
				id = int32(len(x.words))
				x.vocab[w] = id
				x.words = append(x.words, w)
			}
			ids = append(ids, id)
			x.inverted[id] = append(x.inverted[id], o.ID)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		x.objWords = append(x.objWords, ids)
	}
	base.SetObjects(plain)
	return x
}

// Vocab returns the number of distinct keywords.
func (x *Index) Vocab() int { return len(x.words) }

// ObjectsWith returns the ids of objects carrying the keyword.
func (x *Index) ObjectsWith(word string) []int32 {
	id, ok := x.vocab[word]
	if !ok {
		return nil
	}
	return x.inverted[id]
}

// hasAll reports whether object id carries every word id in want (sorted).
func (x *Index) hasAll(id int32, want []int32) bool {
	oi, ok := x.byID[id]
	if !ok {
		return false
	}
	have := x.objWords[oi]
	j := 0
	for _, w := range want {
		for j < len(have) && have[j] < w {
			j++
		}
		if j >= len(have) || have[j] != w {
			return false
		}
	}
	return true
}

// wordIDs resolves query words; missing words report ok = false (no object
// can match).
func (x *Index) wordIDs(words []string) ([]int32, bool) {
	ids := make([]int32, 0, len(words))
	for _, w := range words {
		id, ok := x.vocab[w]
		if !ok {
			return nil, false
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	// De-duplicate.
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			out = append(out, id)
		}
	}
	return out, true
}

// BooleanKNN returns the k nearest objects containing all query words,
// bounded by ctx and any query.Budget it carries: the filtered expansion
// aborts as soon as the context is done or the budget exhausts.
func (x *Index) BooleanKNN(ctx context.Context, p indoor.Point, k int, st *query.Stats, words ...string) ([]query.Neighbor, error) {
	st = query.Track(ctx, st)
	if err := st.Interrupted(); err != nil {
		return nil, err
	}
	want, ok := x.wordIDs(words)
	if !ok {
		return nil, nil
	}
	return x.base.KNNFilter(p, k, func(id int32) bool { return x.hasAll(id, want) }, st)
}

// BooleanRange returns the objects within indoor distance r of p containing
// all query words, in ascending id order, bounded by ctx and any
// query.Budget it carries.
func (x *Index) BooleanRange(ctx context.Context, p indoor.Point, r float64, st *query.Stats, words ...string) ([]int32, error) {
	st = query.Track(ctx, st)
	if err := st.Interrupted(); err != nil {
		return nil, err
	}
	want, ok := x.wordIDs(words)
	if !ok {
		return nil, nil
	}
	all, err := x.base.Range(p, r, st)
	if err != nil {
		return nil, err
	}
	out := all[:0]
	for _, id := range all {
		if x.hasAll(id, want) {
			out = append(out, id)
		}
	}
	return out, nil
}

// RouteResult is a keyword-aware route: the door walk, the objects visited
// (in order), and the total length.
type RouteResult struct {
	Path   query.Path
	Visits []int32
}

// routeState is one Dijkstra state: standing at a door with a subset of
// query keywords already covered.
type routeState struct {
	door indoor.DoorID
	mask uint32
}

// routeHop remembers how a state was reached, for path reconstruction.
type routeHop struct {
	from  routeState
	visit int32 // object id visited on this hop, or -1
	seed  bool  // state seeded directly from p
}

// Route returns the shortest walk from p to q that visits, for each query
// word, at least one object carrying it. It errors when more than
// MaxRouteWords distinct words are given, and returns ErrUnreachable when
// no such walk exists (missing keywords included). It is bounded by ctx and
// any query.Budget it carries: the (door, covered-keyword-set) Dijkstra
// aborts between state expansions.
func (x *Index) Route(ctx context.Context, p, q indoor.Point, st *query.Stats, words ...string) (RouteResult, error) {
	st = query.Track(ctx, st)
	if err := st.Interrupted(); err != nil {
		return RouteResult{}, err
	}
	want, known := x.wordIDs(words)
	if len(want) > MaxRouteWords {
		return RouteResult{}, fmt.Errorf("keyword: route supports at most %d words, got %d", MaxRouteWords, len(want))
	}
	vp, ok := x.sp.HostPartition(p)
	if !ok {
		return RouteResult{}, query.ErrNoHost
	}
	vq, ok := x.sp.HostPartition(q)
	if !ok {
		return RouteResult{}, query.ErrNoHost
	}
	if !known {
		return RouteResult{}, query.ErrUnreachable
	}
	full := uint32(1)<<uint(len(want)) - 1

	// localMask maps an object to the query-word bits it covers.
	localMask := func(id int32) uint32 {
		oi := x.byID[id]
		var m uint32
		for bit, w := range want {
			for _, ow := range x.objWords[oi] {
				if ow == w {
					m |= 1 << uint(bit)
				}
			}
		}
		return m
	}
	// useful lists, per partition, the objects covering at least one query
	// word.
	useful := make(map[indoor.PartitionID][]int32)
	for _, w := range want {
		for _, id := range x.inverted[w] {
			o := &x.objs[x.byID[id]]
			list := useful[o.Part]
			dup := false
			for _, e := range list {
				if e == id {
					dup = true
					break
				}
			}
			if !dup {
				useful[o.Part] = append(useful[o.Part], id)
			}
		}
	}

	dist := make(map[routeState]float64)
	prev := make(map[routeState]routeHop)
	var h pq.Heap[routeState]
	// The frontier holds (door, collected-words) states — at least one per
	// reachable door; pre-grow both heap arrays to that floor in one step.
	h.Grow(x.sp.NumDoors())

	relaxTo := func(s routeState, d float64, hop routeHop) {
		if old, ok := dist[s]; !ok || d < old {
			dist[s] = d
			prev[s] = hop
			h.Push(s, d)
		}
	}

	// Seeds: leave vp directly, or via one object visit inside vp.
	pRef := x.sp.Ref(vp, p)
	for _, d := range x.sp.Partition(vp).Leave {
		w := x.sp.RefToDoor(pRef, d)
		relaxTo(routeState{d, 0}, w, routeHop{visit: -1, seed: true})
		for _, id := range useful[vp] {
			o := &x.objs[x.byID[id]]
			leg := x.sp.RefDist(pRef, x.sp.Ref(vp, o.Loc)) + x.sp.RefToDoor(x.sp.Ref(vp, o.Loc), d)
			relaxTo(routeState{d, localMask(id)}, leg, routeHop{visit: id, seed: true})
		}
	}
	// Direct answers when p and q share a partition.
	best := math.Inf(1)
	var bestState routeState
	bestVisit := int32(-1)
	bestDirect := false
	if vp == vq && full == 0 {
		best = x.sp.WithinPoints(vp, p, q)
		bestDirect = true
	}
	if vp == vq && full != 0 {
		// p -> object -> q inside one partition.
		for _, id := range useful[vp] {
			if localMask(id) == full {
				o := &x.objs[x.byID[id]]
				if cand := x.sp.WithinPoints(vp, p, o.Loc) + x.sp.WithinPoints(vp, o.Loc, q); cand < best {
					best = cand
					bestVisit = id
					bestDirect = true
				}
			}
		}
	}

	qRef := x.sp.Ref(vq, q)
	enterQ := make(map[indoor.DoorID]float64)
	for _, d := range x.sp.Partition(vq).Enter {
		enterQ[d] = x.sp.RefToDoor(qRef, d)
	}

	settled := make(map[routeState]bool)
	for h.Len() > 0 {
		s, sd := h.Pop()
		if settled[s] || sd > dist[s] {
			continue
		}
		if sd >= best {
			break
		}
		settled[s] = true
		st.Door()
		if err := st.Interrupted(); err != nil {
			return RouteResult{}, err
		}

		// Finish: enter vq, optionally via a final object visit.
		if tail, ok := enterQ[s.door]; ok {
			if s.mask == full {
				if cand := sd + tail; cand < best {
					best = cand
					bestState = s
					bestVisit = -1
					bestDirect = false
				}
			}
			for _, id := range useful[vq] {
				if s.mask|localMask(id) == full {
					o := &x.objs[x.byID[id]]
					leg := x.sp.WithinPointDoor(vq, o.Loc, s.door) + x.sp.WithinPoints(vq, o.Loc, q)
					if cand := sd + leg; cand < best {
						best = cand
						bestState = s
						bestVisit = id
						bestDirect = false
					}
				}
			}
		}

		for _, v := range x.sp.Door(s.door).Enterable {
			for _, nd := range x.sp.Partition(v).Leave {
				// Straight crossing.
				w, hit := x.sp.WithinDoorsCached(v, s.door, nd)
				st.Cache(hit)
				if !math.IsInf(w, 1) {
					relaxTo(routeState{nd, s.mask}, sd+w, routeHop{from: s, visit: -1})
				}
				// Crossing via one keyword object.
				for _, id := range useful[v] {
					m := localMask(id)
					if s.mask|m == s.mask {
						continue // nothing new
					}
					o := &x.objs[x.byID[id]]
					leg := x.sp.WithinPointDoor(v, o.Loc, s.door) + x.sp.WithinPointDoor(v, o.Loc, nd)
					if !math.IsInf(leg, 1) {
						relaxTo(routeState{nd, s.mask | m}, sd+leg, routeHop{from: s, visit: id})
					}
				}
			}
		}
	}
	st.Alloc(int64(len(dist)) * 32)

	if math.IsInf(best, 1) {
		return RouteResult{}, query.ErrUnreachable
	}

	// Reconstruct doors and visits.
	var doors []indoor.DoorID
	var visits []int32
	if bestVisit >= 0 {
		visits = append(visits, bestVisit)
	}
	if !bestDirect {
		// Walk back through the hop chain to the seed.
		s := bestState
		for {
			hop, ok := prev[s]
			if !ok {
				break
			}
			doors = append(doors, s.door)
			if hop.visit >= 0 {
				visits = append(visits, hop.visit)
			}
			if hop.seed {
				break
			}
			s = hop.from
		}
	}
	// Reverse into travel order.
	for i, j := 0, len(doors)-1; i < j; i, j = i+1, j-1 {
		doors[i], doors[j] = doors[j], doors[i]
	}
	for i, j := 0, len(visits)-1; i < j; i, j = i+1, j-1 {
		visits[i], visits[j] = visits[j], visits[i]
	}
	return RouteResult{
		Path:   query.Path{Source: p, Target: q, Doors: doors, Dist: best},
		Visits: visits,
	}, nil
}
