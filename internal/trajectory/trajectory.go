// Package trajectory provides analytics over symbolic indoor tracking data:
// sequences of (object, partition, enter-time, exit-time) records as
// produced by RFID/Bluetooth tracking — the historical-query families the
// paper surveys in Sec. 2.3 and names as future work in its conclusion:
//
//   - TopVisited — the k most frequently visited partitions in a time
//     interval (Lu et al., EDBT 2016);
//   - Join — pairs of objects co-located in the same partition with
//     overlapping presence (the spatio-temporal join of Lu et al., ICDE 2011);
//   - Dense — partitions hosting at least a threshold number of objects
//     during an interval (the threshold density query of Ahmed et al.);
//   - Flow — the number of distinct objects passing a partition in an
//     interval (the flow values of Li et al., TKDE 2019).
package trajectory

import (
	"context"
	"fmt"
	"sort"

	"indoorsq/internal/indoor"
)

// Record states that object Obj stayed in partition Part during [In, Out).
type Record struct {
	Obj     int32
	Part    indoor.PartitionID
	In, Out float64
}

// overlaps reports whether the record's stay intersects [t1, t2).
func (r Record) overlaps(t1, t2 float64) bool {
	return r.In < t2 && t1 < r.Out
}

// Log is an immutable set of tracking records indexed by partition.
type Log struct {
	recs   []Record
	byPart map[indoor.PartitionID][]int
}

// NewLog validates and indexes tracking records.
func NewLog(recs []Record) (*Log, error) {
	l := &Log{
		recs:   append([]Record(nil), recs...),
		byPart: make(map[indoor.PartitionID][]int),
	}
	for i, r := range l.recs {
		if r.Out <= r.In {
			return nil, fmt.Errorf("trajectory: record %d has Out %g <= In %g", i, r.Out, r.In)
		}
		l.byPart[r.Part] = append(l.byPart[r.Part], i)
	}
	return l, nil
}

// Len returns the number of records.
func (l *Log) Len() int { return len(l.recs) }

// PositionUpdate is one symbolic position report: object Obj was observed
// in partition Part at time T.
type PositionUpdate struct {
	Obj  int32
	Part indoor.PartitionID
	T    float64
}

// FromUpdates derives stay records from a time-ordered position-update
// stream: consecutive updates of one object in the same partition extend a
// stay; a partition change closes it. Objects' final stays are closed at
// their last report time plus closeAfter.
func FromUpdates(updates []PositionUpdate, closeAfter float64) (*Log, error) {
	type open struct {
		part indoor.PartitionID
		in   float64
		last float64
	}
	cur := make(map[int32]*open)
	var recs []Record
	for _, u := range updates {
		o := cur[u.Obj]
		if o == nil {
			cur[u.Obj] = &open{part: u.Part, in: u.T, last: u.T}
			continue
		}
		if u.T < o.last {
			return nil, fmt.Errorf("trajectory: updates of object %d out of order", u.Obj)
		}
		if u.Part != o.part {
			recs = append(recs, Record{Obj: u.Obj, Part: o.part, In: o.in, Out: u.T})
			cur[u.Obj] = &open{part: u.Part, in: u.T, last: u.T}
		} else {
			o.last = u.T
		}
	}
	objs := make([]int32, 0, len(cur))
	for id := range cur {
		objs = append(objs, id)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	for _, id := range objs {
		o := cur[id]
		recs = append(recs, Record{Obj: id, Part: o.part, In: o.in, Out: o.last + closeAfter})
	}
	return NewLog(recs)
}

// Visit counts one partition's visits.
type Visit struct {
	Part   indoor.PartitionID
	Visits int
}

// TopVisited returns the k partitions with the most visits overlapping
// [t1, t2), descending, ties broken by ascending partition id.
func (l *Log) TopVisited(t1, t2 float64, k int) []Visit {
	counts := make(map[indoor.PartitionID]int)
	for _, r := range l.recs {
		if r.overlaps(t1, t2) {
			counts[r.Part]++
		}
	}
	out := make([]Visit, 0, len(counts))
	for part, c := range counts {
		out = append(out, Visit{Part: part, Visits: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Visits != out[j].Visits {
			return out[i].Visits > out[j].Visits
		}
		return out[i].Part < out[j].Part
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// Pair is an unordered object pair (A < B).
type Pair struct {
	A, B int32
}

// joinCheckEvery is how many candidate record pairs Join examines between
// context polls — comparisons are a few float compares each, so a coarse
// stride keeps the poll cost invisible while still bounding the latency of
// a cancellation to microseconds.
const joinCheckEvery = 4096

// Join returns the object pairs that were in the same partition with
// overlapping presence within [t1, t2), sorted. The O(n²) per-partition
// pair scan polls ctx every joinCheckEvery candidate pairs, so a join over
// a large tracking log can be cancelled or deadline-bounded.
func (l *Log) Join(ctx context.Context, t1, t2 float64) ([]Pair, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	work := 0
	seen := make(map[Pair]bool)
	for _, idxs := range l.byPart {
		for i := 0; i < len(idxs); i++ {
			a := l.recs[idxs[i]]
			if !a.overlaps(t1, t2) {
				continue
			}
			for j := i + 1; j < len(idxs); j++ {
				if work++; work%joinCheckEvery == 0 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				b := l.recs[idxs[j]]
				if a.Obj == b.Obj || !b.overlaps(t1, t2) {
					continue
				}
				// Their stays must overlap each other inside the window.
				lo := max3(a.In, b.In, t1)
				hi := min3(a.Out, b.Out, t2)
				if lo < hi {
					p := Pair{A: a.Obj, B: b.Obj}
					if p.A > p.B {
						p.A, p.B = p.B, p.A
					}
					seen[p] = true
				}
			}
		}
	}
	out := make([]Pair, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out, nil
}

// Dense returns the partitions whose peak simultaneous occupancy within
// [t1, t2) reaches minCount, sorted by descending peak.
func (l *Log) Dense(t1, t2 float64, minCount int) []Visit {
	var out []Visit
	for part, idxs := range l.byPart {
		// Sweep the entry/exit events clipped to the window.
		type ev struct {
			t     float64
			delta int
		}
		var evs []ev
		for _, i := range idxs {
			r := l.recs[i]
			if !r.overlaps(t1, t2) {
				continue
			}
			in, outT := r.In, r.Out
			if in < t1 {
				in = t1
			}
			if outT > t2 {
				outT = t2
			}
			evs = append(evs, ev{in, +1}, ev{outT, -1})
		}
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].t != evs[j].t {
				return evs[i].t < evs[j].t
			}
			return evs[i].delta < evs[j].delta // exits before entries at ties
		})
		cur, peak := 0, 0
		for _, e := range evs {
			cur += e.delta
			if cur > peak {
				peak = cur
			}
		}
		if peak >= minCount {
			out = append(out, Visit{Part: part, Visits: peak})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Visits != out[j].Visits {
			return out[i].Visits > out[j].Visits
		}
		return out[i].Part < out[j].Part
	})
	return out
}

// Flow returns the number of distinct objects present in partition v during
// [t1, t2).
func (l *Log) Flow(v indoor.PartitionID, t1, t2 float64) int {
	objs := make(map[int32]bool)
	for _, i := range l.byPart[v] {
		if r := l.recs[i]; r.overlaps(t1, t2) {
			objs[r.Obj] = true
		}
	}
	return len(objs)
}

func max3(a, b, c float64) float64 {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}

func min3(a, b, c float64) float64 {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
