// Package exec is the query entry point every served query goes through:
// an Op (RQ / kNNQ / SPDQ) is validated and dispatched to one engine by Do.
// Beside it sit the two fan-outs the repo runs, both sized by GOMAXPROCS
// alone: Map, over the legs of a route or the ops of a replay, and Chunks,
// over construction rows. Engines are read-only at query time (verified by
// the race-detector suite in internal/enginetest), so the only shared
// mutable state of a fan-out is the cost accounting: each worker
// accumulates into its own query.Stats shard, and the shards are merged
// once the work drains, keeping the hot path free of locks and the merged
// counters equal to a sequential run's.
package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"indoorsq/internal/indoor"
	"indoorsq/internal/obs"
	"indoorsq/internal/query"
)

// ErrInvalidOp marks an op rejected by up-front validation (negative or NaN
// range radius, non-positive k) before any engine work is spent on it.
var ErrInvalidOp = errors.New("exec: invalid op")

// Kind selects the query type of an Op.
type Kind int

// The three query types Do dispatches.
const (
	RangeQ Kind = iota // Range(P, R)
	KNNQ               // KNN(P, K)
	SPDQ               // SPD(P, Q)
)

// Op is one query.
type Op struct {
	Kind Kind
	P, Q indoor.Point // Q is the SPDQ target; unused otherwise
	R    float64      // RangeQ radius
	K    int          // KNNQ k
}

// Result is the outcome of one Op; exactly one of IDs / Neighbors / Path is
// populated according to the Op's Kind (unless Err is set).
type Result struct {
	IDs       []int32
	Neighbors []query.Neighbor
	Path      query.Path
	Err       error
	Stats     query.Stats   // this query's own counters
	Elapsed   time.Duration // this query's own latency
}

// String returns the query class label the metrics registry and the
// router key evidence by (obs.OpRange, obs.OpKNN, obs.OpSPD).
func (k Kind) String() string {
	switch k {
	case RangeQ:
		return obs.OpRange
	case KNNQ:
		return obs.OpKNN
	default:
		return obs.OpSPD
	}
}

// Validate rejects ops that could never produce an answer (a negative or
// NaN range radius, k < 1), so no engine work is burned on them; Do applies
// it first.
func Validate(op Op) error {
	switch op.Kind {
	case RangeQ:
		if math.IsNaN(op.R) || op.R < 0 {
			return fmt.Errorf("%w: range radius %v", ErrInvalidOp, op.R)
		}
	case KNNQ:
		if op.K <= 0 {
			return fmt.Errorf("%w: knn k %d", ErrInvalidOp, op.K)
		}
	}
	return nil
}

// Do runs one op on eng under ctx: an invalid op fails with ErrInvalidOp
// before any engine work, anything else is dispatched to query.Range, KNN
// or SPD and timed. Every served query runs through it.
func Do(ctx context.Context, eng query.Engine, op Op) Result {
	var r Result
	if r.Err = Validate(op); r.Err != nil {
		return r
	}
	t0 := time.Now()
	switch op.Kind {
	case RangeQ:
		r.IDs, r.Err = query.Range(ctx, eng, op.P, op.R, &r.Stats)
	case KNNQ:
		r.Neighbors, r.Err = query.KNN(ctx, eng, op.P, op.K, &r.Stats)
	case SPDQ:
		r.Path, r.Err = query.SPD(ctx, eng, op.P, op.Q, &r.Stats)
	}
	r.Elapsed = time.Since(t0)
	return r
}

// Map runs fn(0) … fn(n-1) across min(GOMAXPROCS, n) workers. Each
// invocation receives its worker's private Stats shard; the shards are
// merged into the returned Stats after all workers finish, so the totals
// match a sequential run. The returned error is the lowest-index non-nil
// error, independent of scheduling; later indexes still run (no
// cancellation).
//
// Workers claim indexes from a shared atomic counter, one atomic add per
// item. The caller is worker 0 and w-1 goroutines join it, so a Map nested
// inside fn always makes progress.
func Map(n int, fn func(i int, st *query.Stats) error) (query.Stats, error) {
	if n <= 0 {
		return query.Stats{}, nil
	}
	w := min(runtime.GOMAXPROCS(0), n)
	if w == 1 {
		// Sequential fast path: no goroutines, same contract.
		var st query.Stats
		var first error
		for i := 0; i < n; i++ {
			if err := fn(i, &st); err != nil && first == nil {
				first = err
			}
		}
		return st, first
	}

	// shard is one worker's Stats and its first error. A worker claims
	// ascending indexes, so its first error is its lowest-index one.
	type shard struct {
		st     query.Stats
		errIdx int
		err    error
	}
	shards := make([]shard, w)
	var next atomic.Int64
	work := func(sh *shard) {
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if err := fn(i, &sh.st); err != nil && sh.err == nil {
				sh.errIdx, sh.err = i, err
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for wi := 1; wi < w; wi++ {
		go func(sh *shard) {
			defer wg.Done()
			work(sh)
		}(&shards[wi])
	}
	work(&shards[0])
	wg.Wait()

	var st query.Stats
	var first *shard
	for i := range shards {
		sh := &shards[i]
		st.Add(sh.st)
		if sh.err != nil && (first == nil || sh.errIdx < first.errIdx) {
			first = sh
		}
	}
	if first == nil {
		return st, nil
	}
	return st, first.err
}
