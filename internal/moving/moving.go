// Package moving supports indoor moving objects — the adaptation the
// paper's Sec. 7 and conclusion name as future work. Objects report
// timestamped position updates; the package maintains their current
// positions and evaluates continuous queries in the spirit of Yang et al.
// (CIKM 2009): each registered query caches the door-distance field around
// its query point once, so every position update is absorbed with a handful
// of intra-partition distance computations, emitting enter/leave events only
// when a membership actually changes.
//
// Two evaluators share the same distance machinery:
//
//   - Monitor is the simple serial evaluator: one mutex, every update
//     re-evaluated against every registered range query. It is the scan-all
//     reference the streaming benchmarks compare against.
//   - Stream (stream.go) is the sharded streaming subsystem: a
//     partition→query inverted index derived from each query's cached
//     distance field, object-sharded state, batched deterministic ingestion
//     through exec.Pool, standing range and kNN monitors, and incremental
//     delta push over subscriptions.
package moving

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"indoorsq/internal/indoor"
	"indoorsq/internal/pq"
	"indoorsq/internal/query"
)

// Sentinel registration errors. Both Monitor and Stream wrap these, so
// callers (the HTTP monitor endpoints in particular) can map them to
// distinct statuses with errors.Is instead of matching message text.
var (
	// ErrDuplicateQuery marks a Register with an already-registered query id.
	ErrDuplicateQuery = errors.New("moving: query already registered")
	// ErrNotIndoors marks a query point or an unlocated update position
	// hosted by no indoor partition, or an update position its named
	// partition does not host.
	ErrNotIndoors = errors.New("moving: point is not indoors")
)

// Update is one position report of a moving object.
type Update struct {
	ID   int32
	Loc  indoor.Point
	Part indoor.PartitionID // the host; indoor.NoPartition asks Stream.ApplyBatch to locate it
	T    float64            // timestamp, seconds
}

// Event is an emitted membership change of a continuous query.
type Event struct {
	Query  int32
	Object int32
	Enter  bool // true: entered the result; false: left it
	T      float64
}

// qcore is the immutable evaluation core shared by Monitor range queries and
// Stream monitors: the query point with its reusable intra-partition handle,
// the host partition, the radius bound (+Inf for kNN monitors, whose fields
// are unbounded), and the cached door-distance field.
type qcore struct {
	id       int32
	p        indoor.Point
	pRef     indoor.PointRef
	vp       indoor.PartitionID
	r        float64
	doorDist []float64 // distance from p, +Inf beyond r
}

// site is one object position prepared for evaluation against many
// monitors: its partition's enter doors with the intra-partition distance
// to each, and the point handle used when a monitor's query point shares
// the partition. Both are computed on first use and then reused by every
// monitor evaluated at this position, so an update computes each door's
// intra-partition distance at most once, however many monitors it touches.
type site struct {
	part  indoor.PartitionID
	loc   indoor.Point
	enter []indoor.DoorID
	w     []float64 // w[i] = WithinPointDoor(part, loc, enter[i]); NaN until computed
	ref   indoor.PointRef
	refOK bool
	row   []float64 // objDist's gather buffer
}

// reset prepares s for the position loc in partition part, keeping its
// buffers.
func (s *site) reset(sp *indoor.Space, part indoor.PartitionID, loc indoor.Point) {
	s.part, s.loc, s.refOK = part, loc, false
	s.enter = sp.Partition(part).Enter
	s.w = s.w[:0]
	for range s.enter {
		s.w = append(s.w, math.NaN())
	}
}

// objDist computes the indoor distance from the query point to the object
// at s from the cached door field: it gathers the field at s's enter doors
// into a row and hands it to objDistRow.
func (q *qcore) objDist(sp *indoor.Space, s *site) float64 {
	s.row = appendRow(s.row[:0], q.doorDist, s.enter)
	return q.objDistRow(sp, s, s.row)
}

// appendRow appends field's entries at doors, in order.
func appendRow(row, field []float64, doors []indoor.DoorID) []float64 {
	for _, d := range doors {
		row = append(row, field[d])
	}
	return row
}

// objDistRow is the one distance kernel of both evaluators: row[i] is the
// query's field entry at s.enter[i], whether gathered from doorDist or read
// from a Stream's packed index row, so every evaluator's membership
// decisions are bit-identical by construction.
func (q *qcore) objDistRow(sp *indoor.Space, s *site, row []float64) float64 {
	best := math.Inf(1)
	if s.part == q.vp {
		if !s.refOK {
			s.ref, s.refOK = sp.Ref(s.part, s.loc), true
		}
		best = sp.RefDist(q.pRef, s.ref)
	}
	for i, dd := range row {
		if math.IsInf(dd, 1) || dd > q.r {
			continue
		}
		w := s.w[i]
		if math.IsNaN(w) {
			w = sp.WithinPointDoor(s.part, s.loc, s.enter[i])
			s.w[i] = w
		}
		if cand := dd + w; cand < best {
			best = cand
		}
	}
	return best
}

// distField runs the bounded Dijkstra from p once at registration, polling
// ctx every query.CheckInterval settled doors. The returned field upholds
// the doorDist invariant: every entry is either a distance <= limit or
// +Inf — candidates beyond the limit are never stored, at the seeds or
// during relaxation, so consumers may treat any finite entry as in-range.
// An unbounded field (kNN monitors) passes limit = +Inf and settles every
// reachable door.
func distField(ctx context.Context, sp *indoor.Space, p indoor.Point, vp indoor.PartitionID, limit float64) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := sp.NumDoors()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	var h pq.Heap[indoor.DoorID]
	for _, d := range sp.Partition(vp).Leave {
		if w := sp.WithinPointDoor(vp, p, d); w <= limit && w < dist[d] {
			dist[d] = w
			h.Push(d, w)
		}
	}
	settled := 0
	for h.Len() > 0 {
		d, dd := h.Pop()
		if dd > dist[d] {
			continue
		}
		if settled++; settled%query.CheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		for _, v := range sp.Door(d).Enterable {
			for _, nd := range sp.Partition(v).Leave {
				if w, _ := sp.WithinDoorsCached(v, d, nd); !math.IsInf(w, 1) {
					if cand := dd + w; cand <= limit && cand < dist[nd] {
						dist[nd] = cand
						h.Push(nd, cand)
					}
				}
			}
		}
	}
	return dist, nil
}

// validateUpdate checks that u.Part actually hosts u.Loc: u.Loc's floor lies
// in the partition's [Floor, TopFloor] (both landings of a staircase, the
// floor rule HostPartition uses) and its point inside the footprint.
// Boundary points shared by two partitions are accepted for either
// (containment is closed), which keeps reports snapped to a wall by
// quantization valid.
func validateUpdate(sp *indoor.Space, u Update) error {
	if int(u.Part) < 0 || int(u.Part) >= len(sp.Partitions()) {
		return fmt.Errorf("%w: update for object %d names invalid partition %d", ErrNotIndoors, u.ID, u.Part)
	}
	part := sp.Partition(u.Part)
	if u.Loc.Floor < part.Floor || u.Loc.Floor > part.TopFloor || !part.Poly.Contains(u.Loc.XY()) {
		return fmt.Errorf("%w: update for object %d: partition %d does not host %v",
			ErrNotIndoors, u.ID, u.Part, u.Loc)
	}
	return nil
}

// crq is one registered continuous range query of the serial Monitor.
type crq struct {
	qcore
	inside map[int32]bool
}

// Monitor evaluates continuous range queries over a stream of updates by
// re-evaluating every registered query on every update. All methods are safe
// for concurrent use: one mutex serializes registrations, updates, and
// result reads. It is the scan-all baseline the sharded Stream is measured
// against; new consumers should normally use Stream.
type Monitor struct {
	sp *indoor.Space
	// mu guards queries, cur, and every crq's inside set.
	mu      sync.Mutex
	queries map[int32]*crq
	// cur holds each object's latest update.
	cur map[int32]Update
}

// NewMonitor returns an empty monitor over a space.
func NewMonitor(sp *indoor.Space) *Monitor {
	return &Monitor{
		sp:      sp,
		queries: make(map[int32]*crq),
		cur:     make(map[int32]Update),
	}
}

// Register adds a continuous range query around p with radius r. Objects
// already known to the monitor are evaluated immediately; their enter events
// are returned. A duplicate id fails with ErrDuplicateQuery, an outdoor
// query point with ErrNotIndoors (both wrapped, test with errors.Is).
func (m *Monitor) Register(qid int32, p indoor.Point, r float64, t float64) ([]Event, error) {
	return m.RegisterCtx(context.Background(), qid, p, r, t)
}

// RegisterCtx is Register bounded by ctx: the registration-time Dijkstra
// that caches the door-distance field around p checks the context between
// door expansions, so an oversized registration can be cancelled or
// deadline-bounded. A failed registration leaves no trace. Later Apply
// calls absorb updates with a handful of intra-partition computations and
// need no context.
func (m *Monitor) RegisterCtx(ctx context.Context, qid int32, p indoor.Point, r float64, t float64) ([]Event, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.queries[qid]; dup {
		return nil, fmt.Errorf("%w: id %d", ErrDuplicateQuery, qid)
	}
	vp, ok := m.sp.HostPartition(p)
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrNotIndoors, p)
	}
	field, err := distField(ctx, m.sp, p, vp, r)
	if err != nil {
		return nil, err
	}
	q := &crq{
		qcore: qcore{
			id:       qid,
			p:        p,
			pRef:     m.sp.Ref(vp, p),
			vp:       vp,
			r:        r,
			doorDist: field,
		},
		inside: make(map[int32]bool),
	}
	m.queries[qid] = q
	var events []Event
	ids := make([]int32, 0, len(m.cur))
	for id := range m.cur {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var at site
	for _, id := range ids {
		u := m.cur[id]
		at.reset(m.sp, u.Part, u.Loc)
		if q.objDist(m.sp, &at) <= q.r {
			q.inside[id] = true
			events = append(events, Event{Query: qid, Object: id, Enter: true, T: t})
		}
	}
	return events, nil
}

// Unregister removes a continuous query.
func (m *Monitor) Unregister(qid int32) {
	m.mu.Lock()
	delete(m.queries, qid)
	m.mu.Unlock()
}

// NumQueries returns the number of registered queries.
func (m *Monitor) NumQueries() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queries)
}

// Result returns the ids currently inside query qid, ascending.
func (m *Monitor) Result(qid int32) []int32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	q, ok := m.queries[qid]
	if !ok {
		return nil
	}
	out := make([]int32, 0, len(q.inside))
	for id := range q.inside {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// Apply absorbs one position update, returning the membership changes it
// caused across all registered queries (ordered by query id). The update's
// Part must host Loc (a floor in the partition's span, point inside its polygon);
// a mismatched report is rejected rather than silently producing garbage
// distances from door fields that do not apply to Loc's true partition.
func (m *Monitor) Apply(u Update) ([]Event, error) {
	if err := validateUpdate(m.sp, u); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cur[u.ID] = u
	return m.reevaluate(u.ID, &u, u.T), nil
}

// Remove drops an object (it left the building), emitting leave events.
// An object the monitor never saw returns immediately: membership is a
// subset of the known objects (inside sets only gain ids through Apply or
// registration over cur), so there is nothing to walk and nothing to emit —
// the unknown-object path costs no allocations.
func (m *Monitor) Remove(objID int32, t float64) []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, known := m.cur[objID]; !known {
		return nil
	}
	delete(m.cur, objID)
	return m.reevaluate(objID, nil, t)
}

// reevaluate diffs object objID's membership in every query; u == nil means
// the object is gone. With no queries registered it returns immediately
// without allocating.
func (m *Monitor) reevaluate(objID int32, u *Update, t float64) []Event {
	if len(m.queries) == 0 {
		return nil
	}
	qids := make([]int32, 0, len(m.queries))
	for id := range m.queries {
		qids = append(qids, id)
	}
	slices.Sort(qids)
	var at site
	if u != nil {
		at.reset(m.sp, u.Part, u.Loc)
	}
	var events []Event
	for _, qid := range qids {
		q := m.queries[qid]
		now := false
		if u != nil {
			now = q.objDist(m.sp, &at) <= q.r
		}
		was := q.inside[objID]
		switch {
		case now && !was:
			q.inside[objID] = true
			events = append(events, Event{Query: qid, Object: objID, Enter: true, T: t})
		case !now && was:
			delete(q.inside, objID)
			events = append(events, Event{Query: qid, Object: objID, Enter: false, T: t})
		}
	}
	return events
}
