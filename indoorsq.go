// Package indoorsq is a library for indoor spatial query processing: the
// modeling, indexing, and querying techniques evaluated in "An Experimental
// Analysis of Indoor Spatial Queries: Modeling, Indexing, and Processing"
// (EDBT 2021).
//
// It provides:
//
//   - an indoor space model (partitions, doors — including unidirectional
//     and virtual doors — staircases, and the topology mappings between
//     them), built through a Builder;
//   - five model/indexes over a space, all implementing the same Engine
//     interface: IDModel, IDIndex, CIndex, IPTree, and VIPTree;
//   - four indoor spatial query types on every engine: range query (RQ),
//     k nearest neighbors (kNNQ), and fused shortest path + shortest
//     distance (SPQ/SDQ);
//   - the benchmark datasets of the paper (SYN, MZB, HSM, CPH and their
//     topology/decomposition variants) plus workload generators;
//   - the full evaluation harness regenerating the paper's figures.
//
// # Quick start
//
//	sp := must(indoorsq.Dataset("CPH")).Space
//	eng := indoorsq.NewVIPTree(sp, 5)
//	eng.SetObjects(objs)
//	nn, _ := eng.KNN(indoorsq.At(100, 300, 0), 5, nil)
//
// See examples/ for runnable programs.
package indoorsq

import (
	"context"
	"io"

	"indoorsq/internal/cindex"
	"indoorsq/internal/dataset"
	"indoorsq/internal/geom"
	"indoorsq/internal/idindex"
	"indoorsq/internal/idmodel"
	"indoorsq/internal/indoor"
	"indoorsq/internal/iptree"
	"indoorsq/internal/keyword"
	"indoorsq/internal/moving"
	"indoorsq/internal/query"
	"indoorsq/internal/route"
	"indoorsq/internal/temporal"
	"indoorsq/internal/trajectory"
	"indoorsq/internal/uncertain"
	"indoorsq/internal/walker"
	"indoorsq/internal/workload"
)

// Core space-model types.
type (
	// Space is an immutable indoor space.
	Space = indoor.Space
	// Builder assembles a Space.
	Builder = indoor.Builder
	// Point is an indoor location (planar coordinates + floor).
	Point = indoor.Point
	// PartitionID identifies a partition.
	PartitionID = indoor.PartitionID
	// DoorID identifies a door.
	DoorID = indoor.DoorID
	// Partition is a room, hallway, or staircase.
	Partition = indoor.Partition
	// Door is a door or open segment, possibly unidirectional.
	Door = indoor.Door
	// Kind classifies partitions.
	Kind = indoor.Kind
	// SpaceStats summarizes a space (Table 4 statistics).
	SpaceStats = indoor.Stats
	// XY is a planar point.
	XY = geom.Point
	// Polygon is a partition footprint in CCW order.
	Polygon = geom.Polygon
	// Rect is an axis-aligned rectangle.
	Rect = geom.Rect
)

// Partition kinds.
const (
	Room      = indoor.Room
	Hallway   = indoor.Hallway
	Staircase = indoor.Staircase
)

// Concrete engine types (all satisfy Engine).
type (
	// IDModel is the indoor distance-aware model engine.
	IDModel = idmodel.Model
	// IDIndex is the indoor distance-aware index engine.
	IDIndex = idindex.Index
	// CIndex is the composite indoor index engine.
	CIndex = cindex.Index
	// IPTree is the IP-tree / VIP-tree engine.
	IPTree = iptree.Tree
)

// Query framework types.
type (
	// Engine is the uniform interface of all five model/indexes.
	Engine = query.Engine
	// ObjectUpdater is the moving-objects extension implemented by all
	// engines: incremental insert, delete and move of objects.
	ObjectUpdater = query.ObjectUpdater
	// Object is a static indoor object (POI).
	Object = query.Object
	// Neighbor is one kNN result.
	Neighbor = query.Neighbor
	// Path is a shortest path answer.
	Path = query.Path
	// Stats carries per-query cost counters.
	Stats = query.Stats
	// Budget bounds a single query's work (doors, bytes, wall clock).
	Budget = query.Budget
	// DatasetInfo is a benchmark dataset with its tuned parameters.
	DatasetInfo = dataset.Info
	// Workload generates reproducible objects and query instances.
	Workload = workload.Generator
	// SPDPair is one shortest-path query instance.
	SPDPair = workload.Pair
)

// Query errors.
var (
	// ErrNoHost marks a query point outside every partition.
	ErrNoHost = query.ErrNoHost
	// ErrUnreachable marks an unreachable shortest-path target.
	ErrUnreachable = query.ErrUnreachable
	// ErrBudgetExhausted marks a query aborted by its work budget.
	ErrBudgetExhausted = query.ErrBudgetExhausted
)

// WithBudget attaches a per-query work budget to ctx; engines running
// under the returned context abort with ErrBudgetExhausted once a limit
// trips. A zero Budget constrains nothing.
func WithBudget(ctx context.Context, b Budget) context.Context { return query.WithBudget(ctx, b) }

// Range runs e.Range under ctx: cancellation, deadlines and any WithBudget
// budget are honoured inside the traversal loops, and an aborted query
// returns the context's error or ErrBudgetExhausted.
func Range(ctx context.Context, e Engine, p Point, r float64, st *Stats) ([]int32, error) {
	return query.Range(ctx, e, p, r, st)
}

// KNN runs e.KNN under ctx, like Range.
func KNN(ctx context.Context, e Engine, p Point, k int, st *Stats) ([]Neighbor, error) {
	return query.KNN(ctx, e, p, k, st)
}

// SPD runs e.SPD under ctx, like Range.
func SPD(ctx context.Context, e Engine, p, q Point, st *Stats) (Path, error) {
	return query.SPD(ctx, e, p, q, st)
}

// NewBuilder starts assembling a space with the given floor count.
func NewBuilder(name string, floors int) *Builder { return indoor.NewBuilder(name, floors) }

// At is shorthand for Point{x, y, floor}.
func At(x, y float64, floor int16) Point { return indoor.At(x, y, floor) }

// Pt is shorthand for a planar point.
func Pt(x, y float64) XY { return geom.Pt(x, y) }

// R is shorthand for a rectangle.
func R(minX, minY, maxX, maxY float64) Rect { return geom.R(minX, minY, maxX, maxY) }

// RectPoly returns the polygon covering r.
func RectPoly(r Rect) Polygon { return geom.RectPoly(r) }

// NewIDModel builds the indoor distance-aware model (graph + fdv/fd2d
// mappings; no distance precomputation).
func NewIDModel(sp *Space) *IDModel { return idmodel.New(sp) }

// NewIDIndex builds the indoor distance-aware index (global door-to-door
// distance and ordering matrices).
func NewIDIndex(sp *Space) *IDIndex { return idindex.New(sp) }

// NewCIndex builds the composite indoor index (R-tree geometric layer,
// topological links, object buckets).
func NewCIndex(sp *Space) *CIndex { return cindex.New(sp) }

// NewIPTree builds the indoor partitioning tree with crucial-partition
// threshold gamma (γ <= 0 selects the default).
func NewIPTree(sp *Space, gamma int) *IPTree {
	return iptree.New(sp, iptree.Options{Gamma: gamma})
}

// NewVIPTree builds the vivid IP-tree (IP-tree plus per-leaf ancestor
// materialization).
func NewVIPTree(sp *Space, gamma int) *IPTree {
	return iptree.New(sp, iptree.Options{Gamma: gamma, VIP: true})
}

// Temporal-variation extension (Sec. 7): door open/close schedules,
// supported by the engines without distance precomputation.
type (
	// Schedule maps doors to daily open intervals.
	Schedule = temporal.Schedule
	// OpenInterval is one daily open period in hours of day.
	OpenInterval = temporal.Interval
	// TemporalEngine evaluates queries at a fixed time of day.
	TemporalEngine = temporal.Engine
)

// NewSchedule returns an empty door schedule (all doors open).
func NewSchedule() *Schedule { return temporal.NewSchedule() }

// NewTemporalIDModel wraps an IDModel with a schedule evaluated at hour.
func NewTemporalIDModel(m *IDModel, sch *Schedule, hour float64) *TemporalEngine {
	return temporal.NewIDModel(m, sch, hour)
}

// NewTemporalCIndex wraps a CIndex with a schedule evaluated at hour.
func NewTemporalCIndex(ix *CIndex, sch *Schedule, hour float64) *TemporalEngine {
	return temporal.NewCIndex(ix, sch, hour)
}

// EncodeSpace writes a JSON representation of a space.
func EncodeSpace(w io.Writer, sp *Space) error { return indoor.EncodeSpace(w, sp) }

// DecodeSpace rebuilds a space from its JSON representation.
func DecodeSpace(r io.Reader) (*Space, error) { return indoor.DecodeSpace(r) }

// Dataset builds (or returns the cached) benchmark dataset by name:
// SYN3/SYN5/SYN7/SYN9, SYN5-, SYN5+, SYN50, MZB, MZB0, MZBD, HSM, CPH.
func Dataset(name string) (*DatasetInfo, error) { return dataset.Build(name) }

// DatasetNames lists the recognized dataset names.
func DatasetNames() []string { return dataset.Names() }

// NewWorkload returns a deterministic workload generator over a space.
func NewWorkload(sp *Space, seed int64) *Workload { return workload.New(sp, seed) }

// Spatial-keyword extension (Sec. 7): keyword-tagged objects, boolean
// keyword kNN/range queries, and keyword-aware routing.
type (
	// KeywordIndex is the keyword layer over an IDModel.
	KeywordIndex = keyword.Index
	// TaggedObject is a static object with keywords.
	TaggedObject = keyword.Tagged
	// KeywordRoute is a keyword-aware routing answer.
	KeywordRoute = keyword.RouteResult
)

// NewKeywordIndex builds the keyword layer over a base IDModel, installing
// the tagged objects into it.
func NewKeywordIndex(base *IDModel, sp *Space, objs []TaggedObject) *KeywordIndex {
	return keyword.New(base, sp, objs)
}

// Uncertain-locations extension (Sec. 7): objects as uncertainty disks,
// probabilistic range and expected-distance kNN queries over CIndex.
type (
	// UncertainObject is an uncertainty disk clipped to its host partition.
	UncertainObject = uncertain.Object
	// UncertainIndex evaluates probabilistic queries.
	UncertainIndex = uncertain.Index
	// UncertainResult pairs an object with a probability or expected distance.
	UncertainResult = uncertain.Result
)

// NewUncertainIndex builds the uncertain-object index over a CIndex with
// the given samples per object (<= 0 selects the default).
func NewUncertainIndex(cx *CIndex, sp *Space, objs []UncertainObject, samples int) *UncertainIndex {
	return uncertain.New(cx, sp, objs, samples)
}

// Moving-objects extension (Sec. 7 / conclusion): position-update streams
// with continuous range monitoring, plus symbolic trajectory analytics.
type (
	// MovingUpdate is one position report.
	MovingUpdate = moving.Update
	// MovingEvent is a membership change of a continuous query.
	MovingEvent = moving.Event
	// MovingStream is the sharded streaming evaluator: a partition→query
	// inverted index, batched ingestion, standing range and kNN monitors,
	// and delta-push subscriptions.
	MovingStream = moving.Stream
	// MovingStreamOptions configures a MovingStream (its object shard
	// count).
	MovingStreamOptions = moving.StreamOptions
	// MovingSub is a bounded subscription to one monitor's delta stream.
	MovingSub = moving.Sub
	// MonitorInfo describes one registered standing monitor.
	MonitorInfo = moving.MonitorInfo
	// TrackingLog holds symbolic indoor tracking records.
	TrackingLog = trajectory.Log
	// TrackingRecord is one (object, partition, enter, exit) stay.
	TrackingRecord = trajectory.Record
	// PositionUpdate is one symbolic position report.
	PositionUpdate = trajectory.PositionUpdate
)

// NewMovingStream returns an empty sharded continuous-query stream over a
// space. The zero options pick the default shard count.
func NewMovingStream(sp *Space, opts MovingStreamOptions) *MovingStream {
	return moving.NewStream(sp, opts)
}

// NewTrackingLog validates and indexes symbolic tracking records.
func NewTrackingLog(recs []TrackingRecord) (*TrackingLog, error) {
	return trajectory.NewLog(recs)
}

// TrackingLogFromUpdates derives stay records from a time-ordered symbolic
// position-update stream.
func TrackingLogFromUpdates(updates []PositionUpdate, closeAfter float64) (*TrackingLog, error) {
	return trajectory.FromUpdates(updates, closeAfter)
}

// Multi-stop routing: deliveries/errands visiting several waypoints, with
// exact order optimization (Held-Karp) over indoor distances.
type (
	// RoutePlanner builds multi-stop walks over any engine.
	RoutePlanner = route.Planner
)

// NewRoutePlanner returns a planner over the engine.
func NewRoutePlanner(eng Engine) *RoutePlanner { return route.New(eng) }

// Pedestrian simulation: agents walking shortest indoor paths, emitting
// position samples for the moving-object and trajectory machinery.
type (
	// WalkerSim simulates pedestrians over a venue.
	WalkerSim = walker.Sim
	// WalkerSample is one emitted position observation.
	WalkerSample = walker.Sample
)

// NewWalkerSim creates a pedestrian simulation with the given agent count
// and walking speed (m/s), routed by eng.
func NewWalkerSim(sp *Space, eng Engine, agents int, speed float64, seed int64) (*WalkerSim, error) {
	return walker.New(sp, eng, agents, speed, seed)
}
