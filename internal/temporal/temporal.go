// Package temporal implements the temporal-variation extension of the
// paper's Sec. 7: doors may have open/close hours, and queries evaluated at
// a given time of day only traverse doors that are open then. As Table 6
// notes, this extension fits the engines without distance precomputation —
// IDMODEL (schedule table attached to the accessibility base graph) and
// CINDEX (attached to the topological layer) — whereas IDINDEX and
// IP/VIP-TREE would have to invalidate their precomputed matrices on every
// schedule change.
//
// The door filter handed to the engines is materialized per hour: the
// schedule's interval table is evaluated once into a closed-door bitset, so
// every edge visit of a sweep costs one word test instead of a map lookup
// plus an interval scan (BenchmarkDoorFilter measures the difference). The
// same hourly evaluation also rebuilds a reachability condensation
// (internal/reach) under the filter, so queries at that hour prune against
// summaries that already know which wings the schedule closed.
package temporal

import (
	"sort"

	"indoorsq/internal/cindex"
	"indoorsq/internal/idmodel"
	"indoorsq/internal/indoor"
	"indoorsq/internal/query"
	"indoorsq/internal/reach"
)

// Interval is a daily open period [Open, Close) in hours of day.
// Intervals with Close <= Open are empty.
type Interval struct {
	Open, Close float64
}

// Contains reports whether hour falls inside the interval.
func (iv Interval) Contains(hour float64) bool {
	return hour >= iv.Open && hour < iv.Close
}

// Schedule maps doors to their daily open intervals. Doors without an entry
// are always open — matching how a venue's schedule table only lists doors
// with restrictions.
type Schedule struct {
	byDoor map[indoor.DoorID][]Interval
}

// NewSchedule returns an empty schedule.
func NewSchedule() *Schedule {
	return &Schedule{byDoor: make(map[indoor.DoorID][]Interval)}
}

// Set assigns the daily open intervals of door d, replacing any previous
// entry. Setting no intervals makes the door permanently closed.
func (s *Schedule) Set(d indoor.DoorID, ivs ...Interval) {
	sorted := append([]Interval(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Open < sorted[j].Open })
	s.byDoor[d] = sorted
}

// Clear removes door d's entry, making it always open again.
func (s *Schedule) Clear(d indoor.DoorID) { delete(s.byDoor, d) }

// OpenAt reports whether door d is open at the given hour of day.
func (s *Schedule) OpenAt(d indoor.DoorID, hour float64) bool {
	ivs, ok := s.byDoor[d]
	if !ok {
		return true
	}
	for _, iv := range ivs {
		if iv.Contains(hour) {
			return true
		}
	}
	return false
}

// closedBits evaluates the whole schedule at one hour into a bitset of
// closed doors, sized by the highest closed door id. The result is
// independent of map iteration order (bits are ORed in).
func (s *Schedule) closedBits(hour float64) []uint64 {
	var bits []uint64
	for d, ivs := range s.byDoor {
		open := false
		for _, iv := range ivs {
			if iv.Contains(hour) {
				open = true
				break
			}
		}
		if open {
			continue
		}
		w := int(d) >> 6
		for len(bits) <= w {
			bits = append(bits, 0)
		}
		bits[w] |= 1 << (uint(d) & 63)
	}
	return bits
}

// openFunc wraps a closed-door bitset as the engines' door filter: one
// bounds check and one word test per call. Doors beyond the bitset have no
// (closed) schedule entry and are open.
func openFunc(closed []uint64) func(indoor.DoorID) bool {
	return func(d indoor.DoorID) bool {
		w := int(d) >> 6
		return w >= len(closed) || closed[w]&(1<<(uint(d)&63)) == 0
	}
}

// equalBits reports whether two closed-door bitsets are identical.
func equalBits(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// At returns the door filter for one hour of day, materialized from the
// interval table into a closed-door bitset so per-door evaluation is O(1).
func (s *Schedule) At(hour float64) func(indoor.DoorID) bool {
	return openFunc(s.closedBits(hour))
}

// atLookup is the pre-materialization filter — a map lookup plus interval
// scan per call. It answers identically to At and is kept as the baseline
// side of BenchmarkDoorFilter.
func (s *Schedule) atLookup(hour float64) func(indoor.DoorID) bool {
	return func(d indoor.DoorID) bool { return s.OpenAt(d, hour) }
}

// Len returns the number of doors with schedule entries.
func (s *Schedule) Len() int { return len(s.byDoor) }

// Engine answers the four indoor spatial query types at a given time of
// day over a schedule-aware base engine (IDMODEL or CINDEX). Moving the
// evaluation hour with SetHour re-materializes the door filter and, only
// when the closed-door set actually changed, rebuilds the filtered
// reachability condensation the base engine prunes with.
type Engine struct {
	m  *idmodel.Model // exactly one of m, ix is set
	ix *cindex.Index

	sch    *Schedule
	hour   float64
	closed []uint64
	r      *reach.Reach
	base   query.Engine
}

// NewIDModel wraps an IDMODEL with a door schedule evaluated at hour.
func NewIDModel(m *idmodel.Model, sch *Schedule, hour float64) *Engine {
	e := &Engine{m: m, sch: sch, hour: hour}
	e.rebuild(hour, true)
	return e
}

// NewCIndex wraps a CINDEX with a door schedule evaluated at hour.
func NewCIndex(ix *cindex.Index, sch *Schedule, hour float64) *Engine {
	e := &Engine{ix: ix, sch: sch, hour: hour}
	e.rebuild(hour, true)
	return e
}

// rebuild evaluates the schedule at hour. When the closed-door set is
// unchanged from the current one (and force is false) the existing filter,
// reachability summary and base view are kept — moving the hour inside one
// opening regime costs only the bitset comparison.
func (e *Engine) rebuild(hour float64, force bool) {
	closed := e.sch.closedBits(hour)
	e.hour = hour
	if !force && equalBits(closed, e.closed) && e.base != nil {
		return
	}
	e.closed = closed
	open := openFunc(closed)
	if e.m != nil {
		e.r = reach.FromSpace(e.m.Space(), open)
		e.base = e.m.WithOpenReach(open, e.r)
	} else {
		e.r = reach.FromSpace(e.ix.Space(), open)
		e.base = e.ix.WithOpenReach(open, e.r)
	}
}

// SetHour moves the engine to a new evaluation time of day, reusing the
// materialized filter and reachability summary when the closed-door set at
// the new hour is identical.
func (e *Engine) SetHour(hour float64) { e.rebuild(hour, false) }

// Hour returns the evaluation time of day.
func (e *Engine) Hour() float64 { return e.hour }

// Reach returns the reachability summary built for the engine's current
// closed-door set.
func (e *Engine) Reach() *reach.Reach { return e.r }

// Name implements query.Engine.
func (e *Engine) Name() string { return e.base.Name() + "@t" }

// SetObjects implements query.Engine.
func (e *Engine) SetObjects(objs []query.Object) { e.base.SetObjects(objs) }

// Range implements query.Engine, ignoring doors closed at the engine hour.
func (e *Engine) Range(p indoor.Point, r float64, st *query.Stats) ([]int32, error) {
	return e.base.Range(p, r, st)
}

// KNN implements query.Engine, ignoring doors closed at the engine hour.
func (e *Engine) KNN(p indoor.Point, k int, st *query.Stats) ([]query.Neighbor, error) {
	return e.base.KNN(p, k, st)
}

// SPD implements query.Engine, routing only through doors open at the
// engine hour.
func (e *Engine) SPD(p, q indoor.Point, st *query.Stats) (query.Path, error) {
	return e.base.SPD(p, q, st)
}

// SizeBytes implements query.Engine: the base engine plus the schedule
// table, the materialized bitset and the hourly reachability summary.
func (e *Engine) SizeBytes() int64 {
	return e.base.SizeBytes() + int64(e.sch.Len())*40 +
		int64(len(e.closed))*8 + e.r.SizeBytes()
}
