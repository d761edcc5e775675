package exec

import (
	"runtime"

	"indoorsq/internal/query"
)

// Chunks fans the index range [0, n) over GOMAXPROCS workers as contiguous
// chunks, one Map index per chunk — a handful of fetch-adds per worker
// instead of one per item. It is the work feed of the construction loops
// (door-graph derivation, reach summaries, IDINDEX rows, IP/VIP-tree matrix
// fills), whose per-item channel handoff used to show up in build profiles.
//
// fn is called with disjoint [lo, hi) ranges covering [0, n) exactly once;
// calls may run concurrently, so fn must only write state owned by its
// range. Chunks returns when every range has been processed.
func Chunks(n int, fn func(lo, hi int)) {
	w := min(runtime.GOMAXPROCS(0), n)
	// One proc takes the whole range in one call, so per-chunk set-up
	// (scratch, row buffers) is paid once.
	if w <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	// 8 chunks per worker bounds the imbalance of uneven item costs at
	// ~1/8 of a worker's share while keeping counter traffic negligible.
	chunk := (n + w*8 - 1) / (w * 8)
	Map((n+chunk-1)/chunk, func(c int, _ *query.Stats) error {
		lo := c * chunk
		fn(lo, min(lo+chunk, n))
		return nil
	})
}
