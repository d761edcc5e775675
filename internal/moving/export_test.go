package moving

import (
	"fmt"
	"math"
	"slices"

	"indoorsq/internal/indoor"
)

// CheckIndex verifies the Stream's inverted index against its monitors:
// every entry lists registered monitors ascending by id, with their ids in
// the id column and exactly len(Enter) row values per monitor, each row
// bit-equal to the monitor's doorDist at the partition's enter doors;
// every monitor sits in exactly the entries of its relevant partitions;
// and every range result is strictly ascending.
func CheckIndex(s *Stream) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	listed := make(map[*stQuery]int)
	for v := range s.partQ {
		x := &s.partQ[v]
		enter := s.sp.Partition(indoor.PartitionID(v)).Enter
		if len(x.dd) != len(x.qs)*len(enter) {
			return fmt.Errorf("partition %d: %d row values for %d monitors x %d enter doors", v, len(x.dd), len(x.qs), len(enter))
		}
		if len(x.ids) != len(x.qs) {
			return fmt.Errorf("partition %d: %d ids for %d monitors", v, len(x.ids), len(x.qs))
		}
		for j, q := range x.qs {
			if x.ids[j] != q.id {
				return fmt.Errorf("partition %d: id column %d beside monitor %d", v, x.ids[j], q.id)
			}
			if j > 0 && x.qs[j-1].id >= q.id {
				return fmt.Errorf("partition %d: monitor %d listed after %d", v, q.id, x.qs[j-1].id)
			}
			if s.queries[q.id] != q {
				return fmt.Errorf("partition %d: monitor %d is not registered", v, q.id)
			}
			if !slices.Contains(q.parts, indoor.PartitionID(v)) {
				return fmt.Errorf("partition %d: monitor %d is not relevant to it", v, q.id)
			}
			listed[q]++
			for i, d := range enter {
				if got, want := x.row(j, len(enter))[i], q.doorDist[d]; math.Float64bits(got) != math.Float64bits(want) {
					return fmt.Errorf("partition %d monitor %d door %d: row %v, field %v", v, q.id, d, got, want)
				}
			}
		}
	}
	for id, q := range s.queries {
		if listed[q] != len(q.parts) {
			return fmt.Errorf("monitor %d: listed on %d partitions, relevant to %d", id, listed[q], len(q.parts))
		}
		q.mu.Lock()
		for j := 1; j < len(q.inside); j++ {
			if q.inside[j-1] >= q.inside[j] {
				q.mu.Unlock()
				return fmt.Errorf("monitor %d: result %v not strictly ascending", id, q.inside)
			}
		}
		q.mu.Unlock()
	}
	return nil
}
