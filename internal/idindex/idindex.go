// Package idindex implements IDINDEX (Lu et al., ICDE 2012; Sec. 3.2 of the
// paper): on top of the distance-aware model it precomputes the global
// door-to-door distance matrix Md2d, the distance index matrix Midx whose
// rows order all doors by distance from a source door, and a first-hop door
// matrix used to reconstruct shortest paths by recursive concatenation.
//
// Query processing never runs Dijkstra at query time: shortest distances are
// matrix lookups, and RQ/kNN expand doors in globally increasing distance
// order by k-way merging the sorted Midx rows of the source partition's
// leaveable doors.
package idindex

import (
	"math"
	"sort"

	"indoorsq/internal/doorgraph"
	"indoorsq/internal/exec"
	"indoorsq/internal/indoor"
	"indoorsq/internal/obs"
	"indoorsq/internal/pq"
	"indoorsq/internal/query"
	"indoorsq/internal/reach"
)

// Index is the IDINDEX engine.
type Index struct {
	sp    *indoor.Space
	store *query.ObjectStore

	n     int       // number of doors
	d2d   []float64 // n x n row-major: Md2d[i*n+j] = dist door i -> door j
	d2d32 []float32 // compact variant: float32 matrix instead of d2d
	idx   []int32   // n x n: Midx[i*n+k] = id of the k-th nearest door from i
	fh    []int32   // n x n: first door after i on the shortest path i -> j

	// reach is the SCC condensation of the same door graph the matrices
	// were swept from, so "summary says unreachable" coincides exactly
	// with "matrix entry is +Inf"; SetReach(nil) disables pruning.
	reach *reach.Reach

	size int64
}

// New builds the IDINDEX over a space, precomputing all global door-to-door
// distances (the paper's costliest construction, Sec. 6.1).
func New(sp *indoor.Space) *Index { return build(sp, false, 0) }

// NewWorkers builds the IDINDEX with an explicit construction worker count
// (workers <= 0 means GOMAXPROCS). The distance, order and first-hop
// matrices are identical for every worker count.
func NewWorkers(sp *indoor.Space, workers int) *Index { return build(sp, false, workers) }

// NewCompact builds the IDINDEX with float32 distance matrices, halving the
// dominant memory term (Sec. 6.1 flags the matrices as hard to fit in
// memory at scale) at the cost of ~1e-7 relative distance error.
func NewCompact(sp *indoor.Space) *Index { return build(sp, true, 0) }

func build(sp *indoor.Space, compact bool, workers int) *Index {
	n := sp.NumDoors()
	ix := &Index{
		sp:  sp,
		n:   n,
		idx: make([]int32, n*n),
		fh:  make([]int32, n*n),
	}
	if compact {
		ix.d2d32 = make([]float32, n*n)
	} else {
		ix.d2d = make([]float64, n*n)
	}

	// Door graph shared by the n Dijkstra sweeps, built with the same
	// worker budget, and the reachability condensation derived from it.
	dg := doorgraph.BuildWorkers(sp, workers)
	ix.reach = reach.FromGraph(dg, sp, workers)

	// One Dijkstra per source door, fanned out as chunked source ranges
	// (exec.Chunks): every chunk writes disjoint matrix rows, so no
	// synchronization is needed beyond the range counter, and the merge is
	// deterministic because row src depends only on src. Each chunk reuses
	// a pooled scratch across its sources, so the sweeps allocate nothing
	// per source.
	exec.Chunks(n, workers, func(lo, hi int) {
		s := dg.AcquireScratch()
		defer dg.ReleaseScratch(s)
		dist := make([]float64, n)
		for src := lo; src < hi; src++ {
			s.Run(dg, int32(src), false)
			s.CopyDist(dist)
			if compact {
				row := ix.d2d32[src*n : (src+1)*n]
				for i, v := range dist {
					row[i] = float32(v)
				}
			} else {
				copy(ix.d2d[src*n:(src+1)*n], dist)
			}
			s.CopyFirst(ix.fh[src*n : (src+1)*n])

			order := ix.idx[src*n : (src+1)*n]
			for i := range order {
				order[i] = int32(i)
			}
			sort.Slice(order, func(a, b int) bool {
				da, db := dist[order[a]], dist[order[b]]
				if da != db {
					return da < db
				}
				return order[a] < order[b]
			})
		}
	})
	cell := int64(8)
	if compact {
		cell = 4
	}
	ix.size = int64(n)*int64(n)*(cell+4+4) + sp.BaseSizeBytes() + sp.GeomSizeBytes() + ix.reach.SizeBytes()
	return ix
}

// Reach returns the index's reachability summary (nil after SetReach(nil)).
func (ix *Index) Reach() *reach.Reach { return ix.reach }

// SetReach swaps the reachability summary used to prune query processing
// (nil disables pruning — an ablation knob). Results are bit-identical
// either way.
func (ix *Index) SetReach(r *reach.Reach) { ix.reach = r }

// dd returns one matrix entry regardless of storage width.
func (ix *Index) dd(i int) float64 {
	if ix.d2d32 != nil {
		v := ix.d2d32[i]
		if math.IsInf(float64(v), 1) {
			return math.Inf(1)
		}
		return float64(v)
	}
	return ix.d2d[i]
}

// Name implements query.Engine.
func (ix *Index) Name() string { return "IDIndex" }

// SetObjects implements query.Engine.
func (ix *Index) SetObjects(objs []query.Object) {
	ix.store = query.NewObjectStore(ix.sp, objs)
}

// SizeBytes implements query.Engine.
func (ix *Index) SizeBytes() int64 { return ix.size }

// DoorDist returns the precomputed shortest indoor distance between doors.
func (ix *Index) DoorDist(from, to indoor.DoorID) float64 {
	return ix.dd(int(from)*ix.n + int(to))
}

// NthNearest returns the door whose distance from `from` is the k-th
// smallest (k is 0-based; k = 0 is `from` itself).
func (ix *Index) NthNearest(from indoor.DoorID, k int) indoor.DoorID {
	return indoor.DoorID(ix.idx[int(from)*ix.n+k])
}

// mergeEntry is a frontier entry of the k-way Midx merge: list src (source
// door src of the host partition) is at position pos of its sorted row.
type mergeEntry struct {
	src int32 // index into the source-door list
	pos int32
}

// expand visits doors in globally increasing indoor distance from p,
// invoking scan for each first visit with the door's exact distance. scan
// returns the current pruning radius (+Inf to keep going); expansion stops
// once the next frontier distance exceeds it. A tracked st interrupts the
// merge between door visits with the context's error.
func (ix *Index) expand(v0 indoor.PartitionID, p indoor.Point, st *query.Stats, scan func(d indoor.DoorID, dist float64) float64) error {
	leave := ix.sp.Partition(v0).Leave
	if len(leave) == 0 {
		return nil
	}
	off := make([]float64, len(leave))
	for i, d := range leave {
		off[i] = ix.sp.WithinPointDoor(v0, p, d)
	}
	var h pq.Heap[mergeEntry]
	for i := range leave {
		// Position 0 of row leave[i] is leave[i] itself at distance 0.
		h.Push(mergeEntry{src: int32(i), pos: 0}, off[i])
	}
	// Reachability guard before bucket scans. The merge pops doors by exact
	// indoor distance (and never pushes +Inf matrix entries), so unlike the
	// online engines this check is a belt-and-braces bound: it can only fire
	// if the downstream summary is tighter than the door's own distance.
	rc := ix.reach
	prune := rc != nil && rc.NumSCCs() > 1
	var hits, skips int64
	if prune {
		defer func() {
			reach.Metrics.PruneHits.Add(hits)
			reach.Metrics.PruneSkips.Add(skips)
		}()
	}
	visited := make(map[indoor.DoorID]bool, 64)
	radius := math.Inf(1)
	for h.Len() > 0 {
		e, edist := h.Pop()
		if edist > radius {
			break
		}
		srcDoor := leave[e.src]
		d := ix.NthNearest(srcDoor, int(e.pos))
		if int(e.pos)+1 < ix.n {
			nd := off[e.src] + ix.dd(int(srcDoor)*ix.n+int(ix.idx[int(srcDoor)*ix.n+int(e.pos)+1]))
			if !math.IsInf(nd, 1) {
				h.Push(mergeEntry{src: e.src, pos: e.pos + 1}, nd)
			}
		}
		if visited[d] {
			continue
		}
		visited[d] = true
		st.Door()
		if err := st.Interrupted(); err != nil {
			return err
		}
		if prune && rc.MBRPrune(d, p, radius) {
			hits++
			continue
		}
		if prune {
			skips++
		}
		radius = scan(d, edist)
	}
	st.Alloc(int64(len(off))*8 + int64(h.Cap())*16 + int64(len(visited))*9)
	return nil
}

// Range implements query.Engine.
func (ix *Index) Range(p indoor.Point, r float64, st *query.Stats) ([]int32, error) {
	endHost := st.Span(obs.StageHost)
	v0, ok := ix.sp.HostPartition(p)
	endHost()
	if !ok {
		return nil, query.ErrNoHost
	}
	res := make(map[int32]struct{})
	for _, nb := range ix.store.RangeScan(ix.sp, v0, p, 0, r, nil) {
		res[nb.ID] = struct{}{}
	}
	// The k-way merge over precomputed Midx rows is an index probe, not a
	// graph expansion: no Dijkstra runs at query time.
	endProbe := st.Span(obs.StageProbe)
	err := ix.expand(v0, p, st, func(d indoor.DoorID, dist float64) float64 {
		if dist <= r {
			for _, v := range ix.sp.Door(d).Enterable {
				for _, nb := range ix.store.RangeScanDoor(ix.sp, v, d, dist, r-dist, nil) {
					res[nb.ID] = struct{}{}
				}
			}
		}
		return r
	})
	endProbe()
	if err != nil {
		return nil, err
	}
	st.Alloc(int64(len(res)) * 8)

	endRefine := st.Span(obs.StageRefine)
	defer endRefine()
	out := make([]int32, 0, len(res))
	for id := range res {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// KNN implements query.Engine.
func (ix *Index) KNN(p indoor.Point, k int, st *query.Stats) ([]query.Neighbor, error) {
	if k <= 0 {
		return nil, nil
	}
	endHost := st.Span(obs.StageHost)
	v0, ok := ix.sp.HostPartition(p)
	endHost()
	if !ok {
		return nil, query.ErrNoHost
	}
	tk := query.NewTopK(k, ix.store.Len())
	for _, i := range ix.store.Bucket(v0) {
		o := ix.store.At(i)
		tk.Offer(o.ID, ix.sp.WithinPoints(v0, p, o.Loc))
	}
	endProbe := st.Span(obs.StageProbe)
	err := ix.expand(v0, p, st, func(d indoor.DoorID, dist float64) float64 {
		if dist <= tk.Bound() {
			for _, v := range ix.sp.Door(d).Enterable {
				for _, i := range ix.store.Bucket(v) {
					tk.Offer(ix.store.At(i).ID, dist+ix.store.DistToDoor(ix.sp, i, d))
				}
			}
		}
		return tk.Bound()
	})
	endProbe()
	if err != nil {
		return nil, err
	}
	st.Alloc(tk.SizeBytes())
	endRefine := st.Span(obs.StageRefine)
	defer endRefine()
	return tk.Results(), nil
}

// SPD implements query.Engine: the shortest distance is a loop over the two
// door sets (O(d^2), Sec. 4.2), and the path is reconstructed by chaining
// first-hop doors.
func (ix *Index) SPD(p, q indoor.Point, st *query.Stats) (query.Path, error) {
	endHost := st.Span(obs.StageHost)
	vp, ok := ix.sp.HostPartition(p)
	if !ok {
		endHost()
		return query.Path{}, query.ErrNoHost
	}
	vq, ok := ix.sp.HostPartition(q)
	endHost()
	if !ok {
		return query.Path{}, query.ErrNoHost
	}

	best := math.Inf(1)
	bestP, bestQ := indoor.NoDoor, indoor.NoDoor
	if vp == vq {
		best = ix.sp.WithinPointsStop(vp, p, q, st.Stop())
	}

	// Reachability gate: when no leaveable door of vp can reach vq in the
	// condensation, every Md2d entry of the double loop below is +Inf, so
	// the loop (and the two point-to-door sweeps) can be skipped outright.
	if rc := ix.reach; rc != nil && rc.NumSCCs() > 1 {
		from := rc.FromDoors(ix.sp.Partition(vp).Leave, nil)
		if !from.CanReachPart(vq) {
			reach.Metrics.PruneHits.Add(1)
			if err := st.Interrupted(); err != nil {
				return query.Path{}, err
			}
			if math.IsInf(best, 1) {
				return query.Path{}, query.ErrUnreachable
			}
			return query.Path{Source: p, Target: q, Doors: nil, Dist: best}, nil
		}
		reach.Metrics.PruneSkips.Add(1)
	}

	endProbe := st.Span(obs.StageProbe)
	defer endProbe()
	leave := ix.sp.Partition(vp).Leave
	enter := ix.sp.Partition(vq).Enter
	headD := make([]float64, len(leave))
	for i, dp := range leave {
		headD[i] = ix.sp.WithinPointDoor(vp, p, dp)
		st.Door()
	}
	tailD := make([]float64, len(enter))
	for j, dq := range enter {
		tailD[j] = ix.sp.WithinPointDoor(vq, q, dq)
		st.Door()
	}
	if err := st.Interrupted(); err != nil {
		return query.Path{}, err
	}
	for i, dp := range leave {
		base := int(dp) * ix.n
		for j, dq := range enter {
			if cand := headD[i] + ix.dd(base+int(dq)) + tailD[j]; cand < best {
				best = cand
				bestP, bestQ = dp, dq
			}
		}
	}
	st.Alloc(int64(len(leave)+len(enter)) * 8)
	endProbe()

	if math.IsInf(best, 1) {
		return query.Path{}, query.ErrUnreachable
	}
	endRefine := st.Span(obs.StageRefine)
	defer endRefine()
	var doors []indoor.DoorID
	if bestP != indoor.NoDoor {
		doors = append(doors, bestP)
		for cur := bestP; cur != bestQ; {
			next := indoor.DoorID(ix.fh[int(cur)*ix.n+int(bestQ)])
			doors = append(doors, next)
			cur = next
		}
	}
	st.Alloc(int64(len(doors)) * 4)
	return query.Path{Source: p, Target: q, Doors: doors, Dist: best}, nil
}

// ensureStore lazily creates an empty object store.
func (ix *Index) ensureStore() *query.ObjectStore {
	if ix.store == nil {
		ix.store = query.NewObjectStore(ix.sp, nil)
	}
	return ix.store
}

// InsertObject implements query.ObjectUpdater.
func (ix *Index) InsertObject(o query.Object) bool {
	return ix.ensureStore().Insert(ix.sp, o)
}

// DeleteObject implements query.ObjectUpdater.
func (ix *Index) DeleteObject(id int32) bool {
	return ix.ensureStore().Delete(id)
}

// MoveObject implements query.ObjectUpdater.
func (ix *Index) MoveObject(id int32, loc indoor.Point, part indoor.PartitionID) bool {
	return ix.ensureStore().Move(ix.sp, id, loc, part)
}
