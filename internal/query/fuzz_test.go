package query

import (
	"math"
	"sort"
	"testing"
)

// FuzzTopK feeds an arbitrary byte-encoded op sequence into TopK and
// replays it against a brute-force reference.
func FuzzTopK(f *testing.F) {
	f.Add(uint8(3), []byte{1, 10, 2, 5, 1, 3, 3, 20})
	f.Add(uint8(1), []byte{0, 0})
	f.Add(uint8(5), []byte{9, 1, 9, 2, 9, 3})
	f.Fuzz(func(t *testing.T, kRaw uint8, ops []byte) {
		k := int(kRaw%8) + 1
		tk := NewTopK(k, k)
		best := map[int32]float64{}
		for i := 0; i+1 < len(ops); i += 2 {
			id := int32(ops[i] % 16)
			d := float64(ops[i+1])
			tk.Offer(id, d)
			if old, ok := best[id]; !ok || d < old {
				best[id] = d
			}
			// Bound invariant: +Inf until k distinct, else the k-th best.
			wantBound := math.Inf(1)
			if len(best) >= k {
				ds := make([]float64, 0, len(best))
				for _, v := range best {
					ds = append(ds, v)
				}
				sort.Float64s(ds)
				wantBound = ds[k-1]
			}
			if got := tk.Bound(); got != wantBound {
				t.Fatalf("after %d ops: Bound = %g, want %g", i/2+1, got, wantBound)
			}
		}
		// Final results match the brute-force top-k by distance.
		var want []float64
		for _, v := range best {
			want = append(want, v)
		}
		sort.Float64s(want)
		if len(want) > k {
			want = want[:k]
		}
		got := tk.Results()
		if len(got) != len(want) {
			t.Fatalf("results len %d, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Dist != want[i] {
				t.Fatalf("results[%d].Dist = %g, want %g", i, got[i].Dist, want[i])
			}
		}
	})
}
