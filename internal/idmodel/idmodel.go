// Package idmodel implements IDMODEL, the indoor distance-aware model of
// Lu et al. (ICDE 2012, Sec. 3.1 of the paper): an accessibility graph over
// partitions and doors augmented with two distance mappings, fdv
// (door-to-partition max reach) and fd2d (door-to-door distance within a
// partition), the latter materialized as one dense array per partition
// exactly as prescribed in Sec. 5.3. Query processing expands doors in the
// spirit of Dijkstra's algorithm; RQ and kNNQ follow Algorithms 1–2 of the
// paper's Appendix.
package idmodel

import (
	"math"

	"indoorsq/internal/indoor"
	"indoorsq/internal/query"
	"indoorsq/internal/reach"
	"indoorsq/internal/traverse"
)

// Model is the IDMODEL engine.
type Model struct {
	sp    *indoor.Space
	g     *traverse.Graph
	store *query.ObjectStore

	// d2d[v] is the fd2d(v,·,·) array: a len(Doors)^2 matrix indexed by the
	// positions of the doors in Partition(v).Doors (the space's DoorIndex
	// mapping). +Inf encodes impossible moves (direction violations).
	d2d [][]float64

	// reach is the SCC condensation + downstream summaries pruning query
	// expansion (see internal/reach); SetReach(nil) disables it.
	reach *reach.Reach

	size int64
}

// New builds the IDMODEL over a space. The fd2d matrices are materialized
// eagerly as the paper prescribes; the per-pair computations are routed
// through the space's door-pair cache, so distances another engine already
// touched are reused rather than recomputed (and vice versa).
func New(sp *indoor.Space) *Model {
	m := &Model{
		sp:  sp,
		d2d: make([][]float64, sp.NumPartitions()),
	}
	for vi := range sp.Partitions() {
		v := indoor.PartitionID(vi)
		part := sp.Partition(v)
		n := len(part.Doors)

		enter := make([]bool, n)
		leave := make([]bool, n)
		for _, d := range part.Enter {
			enter[sp.DoorIndex(v, d)] = true
		}
		for _, d := range part.Leave {
			leave[sp.DoorIndex(v, d)] = true
		}

		mat := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				switch {
				case i == j:
					mat[i*n+j] = 0
				case enter[i] && leave[j]:
					mat[i*n+j], _ = sp.WithinDoorsCached(v, part.Doors[i], part.Doors[j])
				default:
					mat[i*n+j] = math.Inf(1)
				}
			}
		}
		m.d2d[vi] = mat
		m.size += int64(n*n) * 8
	}
	m.size += int64(sp.NumDoors())*48 + int64(sp.NumPartitions())*32 // graph vertexes/edges
	m.size += sp.BaseSizeBytes() + sp.GeomSizeBytes()

	m.reach = reach.FromSpace(sp, nil)
	m.size += m.reach.SizeBytes()
	m.g = traverse.New(sp, sp.HostPartition, m.d2dStats, false).WithReach(m.reach)
	return m
}

// Space returns the model's underlying indoor space.
func (m *Model) Space() *indoor.Space { return m.sp }

// Reach returns the model's reachability summary (nil after SetReach(nil)).
func (m *Model) Reach() *reach.Reach { return m.reach }

// SetReach swaps the reachability summary used to prune query processing —
// an ablation knob (nil disables pruning) also used by the temporal engine,
// which supplies per-hour summaries built under the schedule's door filter.
// Results are bit-identical with or without a summary.
func (m *Model) SetReach(r *reach.Reach) {
	m.reach = r
	m.g = m.g.WithReach(r)
}

// WithOpenReach is WithOpen with a reachability summary matched to the
// filter: the view prunes with r (which must be conservative for the
// filtered graph — e.g. built by reach.FromSpace under the same open
// filter, or nil for no pruning) instead of the model's full-graph summary.
func (m *Model) WithOpenReach(open func(indoor.DoorID) bool, r *reach.Reach) query.Engine {
	return &openView{Model: m, g: m.g.WithOpen(open).WithReach(r)}
}

// D2D is the fd2d lookup: the distance from door di (entering partition v)
// to door dj (leaving partition v), or +Inf.
func (m *Model) D2D(v indoor.PartitionID, di, dj indoor.DoorID) float64 {
	i := m.sp.DoorIndex(v, di)
	if i < 0 {
		return math.Inf(1)
	}
	j := m.sp.DoorIndex(v, dj)
	if j < 0 {
		return math.Inf(1)
	}
	n := len(m.sp.Partition(v).Doors)
	return m.d2d[v][i*n+j]
}

// d2dStats adapts D2D to the traverse.D2DFunc shape; the model's own dense
// arrays make every lookup a hit-free O(1) read, so no cache counters are
// recorded.
func (m *Model) d2dStats(v indoor.PartitionID, di, dj indoor.DoorID, _ *query.Stats) float64 {
	return m.D2D(v, di, dj)
}

// Name implements query.Engine.
func (m *Model) Name() string { return "IDModel" }

// SetObjects implements query.Engine.
func (m *Model) SetObjects(objs []query.Object) {
	m.store = query.NewObjectStore(m.sp, objs)
}

// Range implements query.Engine (Appendix Algorithm 1).
func (m *Model) Range(p indoor.Point, r float64, st *query.Stats) ([]int32, error) {
	return m.g.Range(m.store, p, r, st)
}

// KNN implements query.Engine (Appendix Algorithm 2).
func (m *Model) KNN(p indoor.Point, k int, st *query.Stats) ([]query.Neighbor, error) {
	return m.g.KNN(m.store, p, k, st)
}

// SPD implements query.Engine.
func (m *Model) SPD(p, q indoor.Point, st *query.Stats) (query.Path, error) {
	return m.g.SPD(p, q, st)
}

// SizeBytes implements query.Engine.
func (m *Model) SizeBytes() int64 { return m.size }

// openView is a temporal view of the model: identical structures, but
// query processing skips doors the filter reports closed.
type openView struct {
	*Model
	g *traverse.Graph
}

// WithOpen returns a view of the model that only traverses doors for which
// open reports true — the temporal-variation extension of Sec. 7. The view
// shares the model's structures and object store.
func (m *Model) WithOpen(open func(indoor.DoorID) bool) query.Engine {
	return &openView{Model: m, g: m.g.WithOpen(open)}
}

// Range implements query.Engine under the door filter.
func (v *openView) Range(p indoor.Point, r float64, st *query.Stats) ([]int32, error) {
	return v.g.Range(v.Model.store, p, r, st)
}

// KNN implements query.Engine under the door filter.
func (v *openView) KNN(p indoor.Point, k int, st *query.Stats) ([]query.Neighbor, error) {
	return v.g.KNN(v.Model.store, p, k, st)
}

// SPD implements query.Engine under the door filter.
func (v *openView) SPD(p, q indoor.Point, st *query.Stats) (query.Path, error) {
	return v.g.SPD(p, q, st)
}

// ensureStore lazily creates an empty object store.
func (m *Model) ensureStore() *query.ObjectStore {
	if m.store == nil {
		m.store = query.NewObjectStore(m.sp, nil)
	}
	return m.store
}

// InsertObject implements query.ObjectUpdater.
func (m *Model) InsertObject(o query.Object) bool {
	return m.ensureStore().Insert(m.sp, o)
}

// DeleteObject implements query.ObjectUpdater.
func (m *Model) DeleteObject(id int32) bool {
	return m.ensureStore().Delete(id)
}

// MoveObject implements query.ObjectUpdater.
func (m *Model) MoveObject(id int32, loc indoor.Point, part indoor.PartitionID) bool {
	return m.ensureStore().Move(m.sp, id, loc, part)
}

// KNNFilter returns the k objects nearest to p among those accepted by the
// predicate — the primitive behind boolean keyword kNN queries (Sec. 7).
func (m *Model) KNNFilter(p indoor.Point, k int, accept func(id int32) bool, st *query.Stats) ([]query.Neighbor, error) {
	return m.g.WithFilter(accept).KNN(m.store, p, k, st)
}
