package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"indoorsq/internal/exec"
	"indoorsq/internal/indoor"
	"indoorsq/internal/query"
)

// rounds is the N of every interleaved best-of-N timing.
const rounds = 5

// mb is one testing.Benchmark observation.
type mb struct {
	ns, bytes, allocs float64
}

func bench(f func(*testing.B)) mb {
	r := testing.Benchmark(f)
	return mb{
		ns:     float64(r.T.Nanoseconds()) / float64(r.N),
		bytes:  float64(r.AllocedBytesPerOp()),
		allocs: float64(r.AllocsPerOp()),
	}
}

// runBest runs the loops interleaved, rounds times (every other round in
// reverse order, so no side always runs first), and keeps each loop's
// fastest ns/op with the highest allocs/op it ever showed: the noise floor
// of every side under the same cache and scheduler conditions. The garbage
// collector is off meanwhile, so a collection started by one side's
// garbage cannot land in the other side's timing; testing.Benchmark still
// collects before each measurement.
func runBest(loops ...func(*testing.B)) []mb {
	prev := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(prev)
	best := make([]mb, len(loops))
	for r := 0; r < rounds; r++ {
		for j := range loops {
			i := j
			if r%2 == 1 {
				i = len(loops) - 1 - j
			}
			m := bench(loops[i])
			if r == 0 || m.ns < best[i].ns {
				best[i].ns, best[i].bytes = m.ns, m.bytes
			}
			best[i].allocs = math.Max(best[i].allocs, m.allocs)
		}
	}
	return best
}

func deltaPct(before, after float64) float64 {
	if before == 0 {
		return 0
	}
	return 100 * (after - before) / before
}

// pair times before against after with runBest and records one row; its
// ns_op_delta_pct is positive when after is slower.
func (sc *scenario) pair(name string, before, after func(*testing.B)) (mb, mb) {
	m := runBest(before, after)
	b, a := m[0], m[1]
	sc.row(name, map[string]float64{
		"before_ns_op": b.ns, "before_bytes_op": b.bytes, "before_allocs_op": b.allocs,
		"after_ns_op": a.ns, "after_bytes_op": a.bytes, "after_allocs_op": a.allocs,
		"ns_op_delta_pct": deltaPct(b.ns, a.ns),
	})
	return b, a
}

// timeBest is the fastest of reps wall-clock runs of f, for work too slow
// for testing.Benchmark.
func timeBest(reps int, f func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		best = min(best, time.Since(start))
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// mixOps is n rounds of one range, one kNN and one SPD query over pts.
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

// loop is a benchmark body running ops round robin, one per iteration:
// through query.Range/KNN/SPD under ctx, or straight into the engine's own
// methods when ctx is nil. Answers are not checked here; the gate already
// compared them.
func loop(ctx context.Context, e query.Engine, ops []exec.Op) func(*testing.B) {
	return func(b *testing.B) {
		var st query.Stats
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			op := &ops[i%len(ops)]
			switch {
			case ctx == nil && op.Kind == exec.RangeQ:
				e.Range(op.P, op.R, &st)
			case ctx == nil && op.Kind == exec.KNNQ:
				e.KNN(op.P, op.K, &st)
			case ctx == nil:
				e.SPD(op.P, op.Q, &st)
			case op.Kind == exec.RangeQ:
				query.Range(ctx, e, op.P, op.R, &st)
			case op.Kind == exec.KNNQ:
				query.KNN(ctx, e, op.P, op.K, &st)
			default:
				query.SPD(ctx, e, op.P, op.Q, &st)
			}
		}
	}
}

// answers runs ops on e through an exec.Pool under ctx.
func answers(ctx context.Context, p *exec.Pool, e query.Engine, ops []exec.Op) []exec.Result {
	res, _ := p.Run(ctx, e, ops)
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
