package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"indoorsq/internal/exec"
	"indoorsq/internal/indoor"
	"indoorsq/internal/query"
)

// The estimator's constants, shared by every timed row: nothing about the
// estimate can be set per scenario, per row or from outside.
const (
	// maxRounds bounds the round count of one estimate; each round gives
	// one sample of every side (see estimate).
	maxRounds = 200
	// minRounds is taken whatever budget says, so a side whose unit is
	// slow (a build) still gets a median of several samples.
	minRounds = 5
	// budget is the wall time after which an estimate starts no new
	// round once it has minRounds.
	budget = 3 * time.Second
	// sampleTime is the length one sample aims at, n shared by every side
	// and calibrated once.
	sampleTime = 2 * time.Millisecond
	// resamples and bootSeed fix the bootstrap of every interval.
	resamples = 2000
	bootSeed  = 1
	// gcSlack is the heap growth, in bytes, after which the estimator
	// collects between two samples. The collector is otherwise off, so no
	// collection lands inside a timed sample.
	gcSlack = 64 << 20
)

// side is one timed body of an estimate: each call of run does ops
// operations (a pass over a query list, one sweep, one build), and every
// per-op figure divides by it.
type side struct {
	ops int
	run func()
}

// timing is what the estimator measured of one side: the ns per op of each
// round's sample, in round order, and the bytes and allocations per op
// over all its samples, whole numbers as testing.B reports them. They are
// counted over all samples, not per sample: a 2 ms sample of a 64-query
// pass that averages 15.95 allocations per query reads 16 whenever it
// meets four stray allocations, which a longer count dilutes.
type timing struct {
	ns            []float64
	bytes, allocs float64
}

func (t timing) median() float64 { return median(t.ns) }

// estimate times sides round by round, interleaved. A warm-up calibration
// picks one n for all sides, so a sample runs a side's unit n times, about
// sampleTime. A round samples every side twice, in mirrored order (A B B A
// for two sides), and keeps each side's faster sample: the mirror cancels
// a drift that is linear over the round, and the faster of two drops a
// sample that the scheduler preempted. The order alternates by round
// (B A A B next), so no side always runs first. Rounds continue until
// maxRounds, or until budget has passed and minRounds are taken. Round r
// gives sample r of every side, which is what pairs them.
func estimate(sides ...side) []timing {
	prev := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(prev)
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	floor := mem.HeapAlloc
	sample := func(s side, n int) (time.Duration, uint64, uint64) {
		runtime.ReadMemStats(&mem)
		if mem.HeapAlloc > floor+gcSlack {
			runtime.GC()
			runtime.ReadMemStats(&mem)
			floor = mem.HeapAlloc
		}
		mallocs, bytes := mem.Mallocs, mem.TotalAlloc
		start := time.Now()
		for i := 0; i < n; i++ {
			s.run()
		}
		took := time.Since(start)
		runtime.ReadMemStats(&mem)
		return took, mem.Mallocs - mallocs, mem.TotalAlloc - bytes
	}

	// Calibration is warm-up and is discarded: caches fill and first-touch
	// costs land here.
	n := 1
	for {
		var took time.Duration
		for _, s := range sides {
			d, _, _ := sample(s, n)
			took += d
		}
		want := time.Duration(len(sides)) * sampleTime
		if took >= want/2 {
			break
		}
		next := int(float64(n) * 1.2 * float64(want) / float64(max(took, 1)))
		n = min(max(next, n+1), 100*n)
	}

	out := make([]timing, len(sides))
	mallocs, bytes := make([]uint64, len(sides)), make([]uint64, len(sides))
	start := time.Now()
	for r := 0; r < maxRounds && (r < minRounds || time.Since(start) < budget); r++ {
		best := make([]time.Duration, len(sides))
		for j := range 2 * len(sides) {
			i := j
			if j >= len(sides) {
				i = 2*len(sides) - 1 - j
			}
			if r%2 == 1 {
				i = len(sides) - 1 - i
			}
			took, m, b := sample(sides[i], n)
			if j < len(sides) || took < best[i] {
				best[i] = took
			}
			mallocs[i] += m
			bytes[i] += b
		}
		for i, s := range sides {
			out[i].ns = append(out[i].ns, float64(best[i].Nanoseconds())/float64(n*s.ops))
		}
	}
	for i, s := range sides {
		ops := uint64(2 * len(out[i].ns) * n * s.ops)
		out[i].allocs, out[i].bytes = float64(mallocs[i]/ops), float64(bytes[i]/ops)
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// delta is the median of the paired relative differences after/before - 1
// in percent, with its bootstrap 95% interval [lo, hi]; positive when
// after is slower.
type delta struct {
	pct, lo, hi float64
}

// pairedDelta pairs before and after sample by sample (same round), takes
// the median of the per-round relative differences and bootstraps it: the
// 2.5th and 97.5th percentiles of the medians of resamples redraws of the
// differences, with replacement, from a fixed seed.
func pairedDelta(before, after []float64) delta {
	diffs := make([]float64, len(before))
	for i := range before {
		diffs[i] = deltaPct(before[i], after[i])
	}
	rng := rand.New(rand.NewPCG(bootSeed, uint64(len(diffs))))
	meds := make([]float64, resamples)
	draw := make([]float64, len(diffs))
	for b := range meds {
		for i := range draw {
			draw[i] = diffs[rng.IntN(len(diffs))]
		}
		meds[b] = median(draw)
	}
	slices.Sort(meds)
	return delta{median(diffs), meds[resamples*25/1000], meds[resamples*975/1000-1]}
}

// The verdicts of a bound.
const (
	pass       = "pass"
	fail       = "fail"
	unresolved = "unresolved"
)

// atMost decides "delta <= limit" from d's interval: pass only if all of
// it meets the limit, fail only if all of it misses, unresolved otherwise.
func atMost(d delta, limit float64) string {
	switch {
	case d.hi <= limit:
		return pass
	case d.lo > limit:
		return fail
	}
	return unresolved
}

func deltaPct(before, after float64) float64 {
	if before == 0 {
		return 0
	}
	return 100 * (after - before) / before
}

// pairMetrics is the row of one before/after comparison: each side's
// median ns/op and its bytes and allocs per op, the paired delta with its
// interval, and the number of paired samples.
func pairMetrics(b, a timing, d delta) map[string]float64 {
	return map[string]float64{
		"before_ns_op": b.median(), "before_bytes_op": b.bytes, "before_allocs_op": b.allocs,
		"after_ns_op": a.median(), "after_bytes_op": a.bytes, "after_allocs_op": a.allocs,
		"ns_op_delta_pct": d.pct, "ns_op_delta_pct_lo": d.lo, "ns_op_delta_pct_hi": d.hi,
		"samples": float64(len(b.ns)),
	}
}

// pair times before against after and records one row.
func (sc *scenario) pair(name string, before, after side) (timing, timing, delta) {
	t := estimate(before, after)
	d := pairedDelta(t[0].ns, t[1].ns)
	sc.row(name, pairMetrics(t[0], t[1], d))
	return t[0], t[1], d
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// mixOps is n triples of one range, one kNN and one SPD query over pts.
func mixOps(pts []indoor.Point, n int, r float64, k int) []exec.Op {
	ops := make([]exec.Op, 0, 3*n)
	for i := 0; i < n; i++ {
		p, q := pts[i%len(pts)], pts[(i+1)%len(pts)]
		ops = append(ops,
			exec.Op{Kind: exec.RangeQ, P: p, R: r},
			exec.Op{Kind: exec.KNNQ, P: p, K: k},
			exec.Op{Kind: exec.SPDQ, P: p, Q: q})
	}
	return ops
}

func opsOf(ops []exec.Op, kind exec.Kind) []exec.Op {
	var out []exec.Op
	for _, op := range ops {
		if op.Kind == kind {
			out = append(out, op)
		}
	}
	return out
}

// passOf is a side that runs ops once per call through runOp, one op per
// query.
func passOf(ctx context.Context, e query.Engine, ops []exec.Op) side {
	var st query.Stats
	return side{len(ops), func() {
		for i := range ops {
			runOp(ctx, e, &ops[i], &st)
		}
	}}
}

// runOp runs op on e through query.Range/KNN/SPD under ctx, or straight
// into the engine's own methods when ctx is nil. Answers are not checked
// here; the gate already compared them.
func runOp(ctx context.Context, e query.Engine, op *exec.Op, st *query.Stats) {
	switch {
	case ctx == nil && op.Kind == exec.RangeQ:
		e.Range(op.P, op.R, st)
	case ctx == nil && op.Kind == exec.KNNQ:
		e.KNN(op.P, op.K, st)
	case ctx == nil:
		e.SPD(op.P, op.Q, st)
	case op.Kind == exec.RangeQ:
		query.Range(ctx, e, op.P, op.R, st)
	case op.Kind == exec.KNNQ:
		query.KNN(ctx, e, op.P, op.K, st)
	default:
		query.SPD(ctx, e, op.P, op.Q, st)
	}
}

// answers runs ops on e under ctx through exec.Do, in order, on the
// caller's goroutine.
func answers(ctx context.Context, e query.Engine, ops []exec.Op) []exec.Result {
	res := make([]exec.Result, len(ops))
	for i := range ops {
		res[i] = exec.Do(ctx, e, ops[i])
	}
	return res
}

// sentinels are the errors two engines must agree on by identity; any
// other error is compared by its message.
var sentinels = []error{
	query.ErrUnreachable, query.ErrNoHost, query.ErrBudgetExhausted, exec.ErrInvalidOp,
	context.Canceled, context.DeadlineExceeded,
}

func errClass(err error) string {
	for _, s := range sentinels {
		if errors.Is(err, s) {
			return s.Error()
		}
	}
	return err.Error()
}

// near is a == b to within tol; tol == 0 demands identical bits.
func near(a, b, tol float64) bool {
	if tol == 0 {
		return math.Float64bits(a) == math.Float64bits(b)
	}
	return a == b || math.Abs(a-b) <= tol
}

// sameResults is the answer gate: got must answer every op as want does.
// Range answers compare as sorted id sets; kNN answers by the distance at
// each rank, plus the ids when tol == 0; SPD answers by distance; and an
// error on one side needs the same error on the other. tol == 0 means
// bit-identical distances (two configurations of one engine); engines
// that relax in different orders agree only to a float tolerance.
func sameResults(ops []exec.Op, want, got []exec.Result, tol float64) error {
	if len(want) != len(ops) || len(got) != len(ops) {
		return fmt.Errorf("gate: %d ops, %d and %d results", len(ops), len(want), len(got))
	}
	for i, op := range ops {
		w, g := want[i], got[i]
		diverge := func(format string, args ...any) error {
			return fmt.Errorf("gate: op %d (kind %d): "+format, append([]any{i, op.Kind}, args...)...)
		}
		if (w.Err == nil) != (g.Err == nil) {
			return diverge("error %v vs %v", w.Err, g.Err)
		}
		if w.Err != nil {
			if errClass(w.Err) != errClass(g.Err) {
				return diverge("error %v vs %v", w.Err, g.Err)
			}
			continue
		}
		switch op.Kind {
		case exec.RangeQ:
			a := append([]int32(nil), w.IDs...)
			b := append([]int32(nil), g.IDs...)
			sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
			sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
			if len(a) != len(b) {
				return diverge("%d range ids vs %d", len(a), len(b))
			}
			for j := range a {
				if a[j] != b[j] {
					return diverge("range id sets differ at %d: %d vs %d", j, a[j], b[j])
				}
			}
		case exec.KNNQ:
			if len(w.Neighbors) != len(g.Neighbors) {
				return diverge("%d neighbours vs %d", len(w.Neighbors), len(g.Neighbors))
			}
			for j, a := range w.Neighbors {
				b := g.Neighbors[j]
				if !near(a.Dist, b.Dist, tol) || (tol == 0 && a.ID != b.ID) {
					return diverge("rank %d: %v vs %v", j, a, b)
				}
			}
		case exec.SPDQ:
			if !near(w.Path.Dist, g.Path.Dist, tol) {
				return diverge("SPD %.17g vs %.17g", w.Path.Dist, g.Path.Dist)
			}
		}
	}
	return nil
}
