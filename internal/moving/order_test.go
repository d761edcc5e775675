package moving

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"indoorsq/internal/indoor"
	"indoorsq/internal/spacegen"
	"indoorsq/internal/testspaces"
)

// TestSortEventsMatchesStableSort checks sortEvents against a stable sort
// on (T, query, object) over random event lists dense in ties, reusing one
// key buffer throughout as ApplyBatch's pooled scratch does.
func TestSortEventsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var keys []keyedEvent
	for trial := 0; trial < 300; trial++ {
		events := make([]Event, rng.Intn(400))
		for i := range events {
			events[i] = Event{
				Query:  int32(rng.Intn(6)),
				Object: int32(rng.Intn(12)),
				Enter:  rng.Intn(2) == 0,
				T:      float64(rng.Intn(3)),
			}
		}
		want := slices.Clone(events)
		slices.SortStableFunc(want, compareEvents)
		keys = sortEvents(events, keys)
		if !slices.Equal(events, want) {
			t.Fatalf("trial %d: sortEvents = %v, want %v", trial, events, want)
		}
	}
}

// scanParts is the partition-major derivation relevantParts replaced: the
// host, plus every partition that has a finite field entry on one of its
// enter doors.
func scanParts(s *Stream, q *qcore) []indoor.PartitionID {
	var out []indoor.PartitionID
	for v := range s.partQ {
		pid := indoor.PartitionID(v)
		if pid == q.vp {
			out = append(out, pid)
			continue
		}
		for _, d := range s.sp.Partition(pid).Enter {
			if !math.IsInf(q.doorDist[d], 1) {
				out = append(out, pid)
				break
			}
		}
	}
	return out
}

// TestRelevantPartsMatchScan registers range and kNN monitors on generated
// venues with one-way doors, and on the same venues with a closed wing, and
// requires every monitor's relevant partitions to equal the
// partition-major scan's.
func TestRelevantPartsMatchScan(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		p := spacegen.Params{
			Floors:     1 + int(seed%2),
			Rows:       2,
			Cols:       3 + int(seed%3),
			Hall:       spacegen.HallKind(seed % 3),
			ExtraDoors: int(seed % 5),
			OneWayFrac: float64(seed%3) / 2,
			Decompose:  seed%2 == 0,
		}.Normalize()
		sp, err := spacegen.Generate(seed, p)
		if err != nil {
			t.Fatalf("seed=%d: generate: %v", seed, err)
		}
		maxX := math.Inf(-1)
		for v := 0; v < sp.NumPartitions(); v++ {
			maxX = math.Max(maxX, sp.Partition(indoor.PartitionID(v)).MBR.MaxX)
		}
		wing, err := testspaces.CloseWing(sp, 0.5*maxX)
		if err != nil {
			t.Fatalf("seed=%d: close wing: %v", seed, err)
		}
		for _, venue := range []*indoor.Space{sp, wing} {
			label := fmt.Sprintf("seed=%d wing=%v", seed, venue == wing)
			s := NewStream(venue, StreamOptions{})
			rng := rand.New(rand.NewSource(seed))
			for qid := int32(0); qid < 24; qid++ {
				pt := spacegen.Point(venue, rng)
				if qid%4 == 3 {
					_, err = s.RegisterKNN(qid, pt, 3, 0)
				} else {
					_, err = s.Register(qid, pt, 5+rng.Float64()*40, 0)
				}
				if err != nil {
					t.Fatalf("%s: register %d: %v", label, qid, err)
				}
				q := s.queries[qid]
				if want := scanParts(s, &q.qcore); !slices.Equal(q.parts, want) {
					t.Fatalf("%s: monitor %d parts %v, want %v", label, qid, q.parts, want)
				}
			}
		}
	}
}
