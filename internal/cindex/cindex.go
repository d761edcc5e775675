// Package cindex implements CINDEX, the composite indoor index of Xie et al.
// (ICDE 2013; Sec. 3.3 of the paper): a layered structure with
//
//   - a geometric layer: an R-tree over partition MBRs (fan-out 20, standing
//     in for the R*-tree as the paper's own experiments do, Sec. 5.3);
//   - a topological layer: inter-partition links (dk, ->vj) attached to each
//     partition, forming an implicit door graph;
//   - an object layer: per-partition object buckets plus an object hashtable.
//
// CINDEX precomputes no indoor distances. Query initialization locates the
// host partition through the R-tree; expansion runs Dijkstra over the
// topological links, computing door-to-door distances on the fly, with an
// additional Euclidean lower-bound check before bucket scans (which, as the
// paper observes, rarely prunes under indoor topology).
package cindex

import (
	"indoorsq/internal/geom"
	"indoorsq/internal/indoor"
	"indoorsq/internal/query"
	"indoorsq/internal/reach"
	"indoorsq/internal/rtree"
	"indoorsq/internal/traverse"
)

// Link is one topological-layer record: partition vi connects through door D
// into partition To.
type Link struct {
	D  indoor.DoorID
	To indoor.PartitionID
}

// Options configures optional CINDEX behaviours.
type Options struct {
	// NoDistCache computes every door-to-door distance on the fly instead
	// of going through the space's lazy door-pair cache — the strictest
	// reading of the paper's "no precomputation" semantics, and the
	// baseline side of cache-effectiveness benchmarks. Results are
	// identical either way; only cost and query.Stats cache counters
	// differ.
	NoDistCache bool
}

// Index is the CINDEX engine.
type Index struct {
	sp    *indoor.Space
	tree  *rtree.Tree
	links [][]Link // per partition
	store *query.ObjectStore
	g     *traverse.Graph
	reach *reach.Reach
	size  int64
	opt   Options
}

// New builds the CINDEX over a space with the default options (door-pair
// distances memoized through the space's lazy cache).
func New(sp *indoor.Space) *Index { return NewOpts(sp, Options{}) }

// NewOpts builds the CINDEX over a space with explicit options.
func NewOpts(sp *indoor.Space, opt Options) *Index {
	ix := &Index{
		sp:    sp,
		tree:  rtree.New(rtree.DefaultFanout),
		links: make([][]Link, sp.NumPartitions()),
		opt:   opt,
	}
	for vi := range sp.Partitions() {
		v := indoor.PartitionID(vi)
		part := sp.Partition(v)
		ix.tree.Insert(part.MBR, int32(vi))
		for _, d := range part.Leave {
			for _, to := range sp.Door(d).Enterable {
				if to != v {
					ix.links[vi] = append(ix.links[vi], Link{D: d, To: to})
				}
			}
		}
		ix.size += int64(len(ix.links[vi])) * 8
	}
	ix.reach = reach.FromSpace(sp, nil)
	ix.size += ix.tree.SizeBytes() + sp.BaseSizeBytes() + sp.GeomSizeBytes() + ix.reach.SizeBytes()
	ix.g = traverse.New(sp, ix.Host, ix.d2d, true).WithReach(ix.reach)
	return ix
}

// Space returns the index's underlying indoor space.
func (ix *Index) Space() *indoor.Space { return ix.sp }

// Reach returns the index's reachability summary (nil after SetReach(nil)).
func (ix *Index) Reach() *reach.Reach { return ix.reach }

// SetReach swaps the reachability summary used to prune query processing —
// an ablation knob (nil disables pruning) also used by the temporal engine,
// which supplies per-hour summaries built under the schedule's door filter.
// Results are bit-identical with or without a summary.
func (ix *Index) SetReach(r *reach.Reach) {
	ix.reach = r
	ix.g = ix.g.WithReach(r)
}

// WithOpenReach is WithOpen with a reachability summary matched to the
// filter: the view prunes with r (which must be conservative for the
// filtered graph) instead of the index's full-graph summary.
func (ix *Index) WithOpenReach(open func(indoor.DoorID) bool, r *reach.Reach) query.Engine {
	return &openView{Index: ix, g: ix.g.WithOpen(open).WithReach(r)}
}

// Host locates the partition containing p using the geometric layer: the
// R-tree filters partitions by MBR (Table 2's initialization) and the
// space's host rule (indoor.HostBefore) picks among the containing ones, so
// a point on a shared wall gets the host every other engine gets.
func (ix *Index) Host(p indoor.Point) (indoor.PartitionID, bool) {
	return ix.sp.HostAmong(p, ix.tree.SearchPoint(p.XY(), nil))
}

// d2d resolves the door-to-door distance within v, honouring door direction
// through the link structure: on the fly under NoDistCache, otherwise
// memoized through the space's lazy door-pair cache with hit/miss
// accounting on st.
func (ix *Index) d2d(v indoor.PartitionID, di, dj indoor.DoorID, st *query.Stats) float64 {
	if ix.opt.NoDistCache {
		return ix.sp.WithinDoors(v, di, dj)
	}
	d, hit := ix.sp.WithinDoorsCached(v, di, dj)
	st.Cache(hit)
	return d
}

// Links returns the topological-layer records of partition v.
func (ix *Index) Links(v indoor.PartitionID) []Link { return ix.links[v] }

// Tree exposes the geometric layer (used by extensions and tests).
func (ix *Index) Tree() *rtree.Tree { return ix.tree }

// Name implements query.Engine.
func (ix *Index) Name() string { return "CIndex" }

// SetObjects implements query.Engine (the object layer).
func (ix *Index) SetObjects(objs []query.Object) {
	ix.store = query.NewObjectStore(ix.sp, objs)
}

// Range implements query.Engine.
func (ix *Index) Range(p indoor.Point, r float64, st *query.Stats) ([]int32, error) {
	return ix.g.Range(ix.store, p, r, st)
}

// KNN implements query.Engine.
func (ix *Index) KNN(p indoor.Point, k int, st *query.Stats) ([]query.Neighbor, error) {
	return ix.g.KNN(ix.store, p, k, st)
}

// SPD implements query.Engine.
func (ix *Index) SPD(p, q indoor.Point, st *query.Stats) (query.Path, error) {
	return ix.g.SPD(p, q, st)
}

// SizeBytes implements query.Engine.
func (ix *Index) SizeBytes() int64 { return ix.size }

// RangeCandidates returns the partitions whose MBRs intersect the Euclidean
// disk of radius r around p, a geometric-layer primitive used by extensions
// (e.g. uncertain-location queries, Sec. 7).
func (ix *Index) RangeCandidates(p indoor.Point, r float64) []indoor.PartitionID {
	box := geom.R(p.X-r, p.Y-r, p.X+r, p.Y+r)
	refs := ix.tree.Search(box, nil)
	out := make([]indoor.PartitionID, 0, len(refs))
	for _, c := range refs {
		v := indoor.PartitionID(c)
		part := ix.sp.Partition(v)
		if p.Floor >= part.Floor && p.Floor <= part.TopFloor {
			out = append(out, v)
		}
	}
	return out
}

// openView is a temporal view of the index: the topological layer is
// filtered by door open state at query time.
type openView struct {
	*Index
	g *traverse.Graph
}

// WithOpen returns a view of the index that only traverses doors for which
// open reports true — the temporal-variation extension of Sec. 7, realized
// through the dynamically-updatable topological layer.
func (ix *Index) WithOpen(open func(indoor.DoorID) bool) query.Engine {
	return &openView{Index: ix, g: ix.g.WithOpen(open)}
}

// Range implements query.Engine under the door filter.
func (v *openView) Range(p indoor.Point, r float64, st *query.Stats) ([]int32, error) {
	return v.g.Range(v.Index.store, p, r, st)
}

// KNN implements query.Engine under the door filter.
func (v *openView) KNN(p indoor.Point, k int, st *query.Stats) ([]query.Neighbor, error) {
	return v.g.KNN(v.Index.store, p, k, st)
}

// SPD implements query.Engine under the door filter.
func (v *openView) SPD(p, q indoor.Point, st *query.Stats) (query.Path, error) {
	return v.g.SPD(p, q, st)
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

// SetEuclidPrune toggles the geometric-layer Euclidean lower-bound check
// before object bucket scans — an ablation knob for the design choice the
// paper evaluates (Sec. 6.2 B5 observes it rarely prunes under indoor
// topology).
func (ix *Index) SetEuclidPrune(on bool) {
	ix.g = traverse.New(ix.sp, ix.Host, ix.d2d, on).WithReach(ix.reach)
}
