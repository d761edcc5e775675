// Package exec is the concurrent batch query executor: it fans a slice of
// queries (RQ / kNNQ / SPDQ) over one engine across a bounded worker pool.
// Engines are read-only at query time (verified by the race-detector suite
// in internal/enginetest), so the only shared mutable state is the cost
// accounting — each worker accumulates into its own query.Stats shard, and
// the shards are merged once the batch drains, keeping the hot path free of
// locks and the merged counters equal to a sequential run's.
package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
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

// The three query types the executor understands.
const (
	RangeQ Kind = iota // Range(P, R)
	KNNQ               // KNN(P, K)
	SPDQ               // SPD(P, Q)
)

// Op is one query of a batch.
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

// Batch aggregates one executed batch.
type Batch struct {
	Stats     query.Stats   // merged worker shards (== sequential sums)
	Wall      time.Duration // wall-clock time of the whole batch
	QueryTime time.Duration // summed per-query latencies across workers
	// Errs counts ops that finished with a non-nil Result.Err, including
	// validation rejects and cancellations.
	Errs int
	// Cancelled counts the subset of Errs caused by context cancellation,
	// deadline expiry, or budget exhaustion — ops that were interrupted
	// rather than answered.
	Cancelled int
}

// Pool runs batches with at most Workers concurrent queries (<= 0 means
// GOMAXPROCS). The zero value is ready to use.
type Pool struct {
	Workers int
	// FailFast cancels the remainder of a batch as soon as one op fails:
	// queued ops then return immediately with context.Canceled instead of
	// running to completion. Off by default — a batch normally answers every
	// op and reports per-op errors in the Results.
	FailFast bool
	// OpTimeout, when positive, bounds each op with its own deadline derived
	// from the batch context.
	OpTimeout time.Duration
	// Obs, when non-nil, is the metrics registry every op of a batch emits
	// into (per engine × query type, via query.Range/KNN/SPD). It
	// composes with any obs binding already on the batch context: an
	// incoming trace is kept, the registry is overridden.
	Obs *obs.Registry
}

// validate rejects ops that could never produce an answer, so a worker is
// not burned on them.
func validate(op Op) error {
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

// interrupted reports whether err is an interruption (context cancellation,
// deadline expiry, or budget exhaustion) rather than a query failure.
func interrupted(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, query.ErrBudgetExhausted)
}

// workers resolves the effective worker count for a batch of n items.
func (p *Pool) workers(n int) int {
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes ops against eng. Results are indexed like ops regardless of
// scheduling, so the output is deterministic for deterministic engines.
func (p *Pool) Run(eng query.Engine, ops []Op) ([]Result, Batch) {
	return p.RunCtx(context.Background(), eng, ops)
}

// RunCtx is Run bounded by ctx: every op runs under a context derived from
// it (plus OpTimeout, when set), so cancelling ctx interrupts the whole
// batch mid-traversal. Interrupted and invalid ops report their error in
// their Result like any other per-op failure; the batch itself always
// completes and tallies them in Errs/Cancelled.
func (p *Pool) RunCtx(ctx context.Context, eng query.Engine, ops []Op) ([]Result, Batch) {
	if ctx == nil {
		ctx = context.Background()
	}
	if p.Obs != nil {
		ctx = obs.WithRegistry(ctx, p.Obs)
	}
	batchCtx := ctx
	var abort context.CancelFunc
	if p.FailFast {
		batchCtx, abort = context.WithCancel(ctx)
		defer abort()
	}
	results := make([]Result, len(ops))
	start := time.Now()
	merged, _ := p.MapCtx(batchCtx, len(ops), func(opCtx context.Context, i int, st *query.Stats) error {
		r := &results[i]
		if err := validate(ops[i]); err != nil {
			r.Err = err
			if abort != nil {
				abort()
			}
			return nil // per-op errors live in the Result, not the batch
		}
		done := func() {}
		if p.OpTimeout > 0 {
			opCtx, done = context.WithTimeout(opCtx, p.OpTimeout)
		}
		var own query.Stats
		t0 := time.Now()
		switch ops[i].Kind {
		case RangeQ:
			r.IDs, r.Err = query.Range(opCtx, eng, ops[i].P, ops[i].R, &own)
		case KNNQ:
			r.Neighbors, r.Err = query.KNN(opCtx, eng, ops[i].P, ops[i].K, &own)
		case SPDQ:
			r.Path, r.Err = query.SPD(opCtx, eng, ops[i].P, ops[i].Q, &own)
		}
		done()
		r.Elapsed = time.Since(t0)
		r.Stats = own
		st.Add(own)
		if r.Err != nil && abort != nil {
			abort()
		}
		return nil
	})
	b := Batch{Stats: merged, Wall: time.Since(start)}
	for i := range results {
		b.QueryTime += results[i].Elapsed
		if err := results[i].Err; err != nil {
			b.Errs++
			if interrupted(err) {
				b.Cancelled++
			}
		}
	}
	return results, b
}

// Map runs fn(0) … fn(n-1) across the pool. Each invocation receives its
// worker's private Stats shard; the shards are merged into the returned
// Stats after all workers finish, so the totals match a sequential run.
// The returned error is the lowest-index non-nil error, independent of
// scheduling; later indexes still run (no cancellation).
func (p *Pool) Map(n int, fn func(i int, st *query.Stats) error) (query.Stats, error) {
	if n <= 0 {
		return query.Stats{}, nil
	}
	w := p.workers(n)
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

	shards := make([]query.Stats, w)
	errs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int, w)
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func(shard *query.Stats) {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(i, shard)
			}
		}(&shards[wi])
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()

	var st query.Stats
	for i := range shards {
		st.Add(shards[i])
	}
	for _, err := range errs {
		if err != nil {
			return st, err
		}
	}
	return st, nil
}

// MapCtx is Map with a context threaded to every invocation. It does not
// skip items itself: once ctx is cancelled each remaining fn call is
// expected to notice (query.Range/KNN/SPD fail immediately on a
// cancelled context), which keeps Map's contract — every index runs, the
// lowest-index error wins — while the batch drains in microseconds.
func (p *Pool) MapCtx(ctx context.Context, n int, fn func(ctx context.Context, i int, st *query.Stats) error) (query.Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return p.Map(n, func(i int, st *query.Stats) error { return fn(ctx, i, st) })
}
