package exec_test

import (
	"sync"
	"testing"

	"indoorsq/internal/exec"
)

// TestChunksCoversExactlyOnce asserts every index in [0, n) is visited by
// exactly one chunk, for sequential and parallel GOMAXPROCS alike.
func TestChunksCoversExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		for _, procs := range []int{1, 2, 3, 8, 64} {
			setProcs(t, procs)
			seen := make([]int32, n)
			var mu sync.Mutex
			exec.Chunks(n, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("n=%d procs=%d: bad range [%d,%d)", n, procs, lo, hi)
					return
				}
				mu.Lock()
				for i := lo; i < hi; i++ {
					seen[i]++
				}
				mu.Unlock()
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d procs=%d: index %d visited %d times", n, procs, i, c)
				}
			}
		}
	}
}

// TestChunksConcurrentSum exercises the feed under the race detector with
// workers accumulating into disjoint range-owned state.
func TestChunksConcurrentSum(t *testing.T) {
	setProcs(t, 8)
	const n = 100000
	out := make([]int, n)
	exec.Chunks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = i * 2
		}
	})
	for i := 0; i < n; i += 9973 {
		if out[i] != i*2 {
			t.Fatalf("out[%d] = %d", i, out[i])
		}
	}
}
