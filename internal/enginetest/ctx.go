package enginetest

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"indoorsq/internal/indoor"
	"indoorsq/internal/query"
	"indoorsq/internal/testspaces"
	"indoorsq/internal/workload"
)

// ctxFixture builds the engine over a multi-floor random grid with a
// cross-floor SPDQ pair, so every query type must expand doors (and thus
// pass the amortized cancellation probes) before it can answer.
func ctxFixture(t *testing.T, build BuildFunc) (query.Engine, indoor.Point, indoor.Point) {
	t.Helper()
	sp := testspaces.RandomGrid(19, 5, 6, 2, 8, 0.1)
	e := build(sp)
	gen := workload.New(sp, 7)
	e.SetObjects(gen.Objects(200))

	var p, q indoor.Point
	for p.Floor == q.Floor {
		p = gen.Point()
		q = gen.Point()
	}
	return e, p, q
}

func cancellation(t *testing.T, build BuildFunc) {
	e, p, q := ctxFixture(t, build)

	t.Run("BackgroundEquivalence", func(t *testing.T) {
		// An uncancellable, budget-free context must not change answers.
		var st1, st2 query.Stats
		plain, err1 := e.SPD(p, q, &st1)
		ctxed, err2 := query.SPD(context.Background(), e, p, q, &st2)
		if err1 != nil || err2 != nil {
			t.Fatalf("SPD errs: %v, %v", err1, err2)
		}
		if math.Abs(plain.Dist-ctxed.Dist) > tol {
			t.Fatalf("query.SPD(Background) = %g, SPD = %g", ctxed.Dist, plain.Dist)
		}
		// Cache hit/miss counters legitimately differ (the first query warms
		// the lazy distance cache); the traversal counters must not.
		if st1.VisitedDoors != st2.VisitedDoors || st1.WorkBytes != st2.WorkBytes {
			t.Fatalf("stats diverge: %+v vs %+v", st1, st2)
		}
	})

	t.Run("PreCancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var st query.Stats
		if _, err := query.Range(ctx, e, p, 1000, &st); !errors.Is(err, context.Canceled) {
			t.Errorf("query.Range on cancelled ctx: err = %v, want Canceled", err)
		}
		if _, err := query.KNN(ctx, e, p, 10, &st); !errors.Is(err, context.Canceled) {
			t.Errorf("query.KNN on cancelled ctx: err = %v, want Canceled", err)
		}
		if _, err := query.SPD(ctx, e, p, q, &st); !errors.Is(err, context.Canceled) {
			t.Errorf("query.SPD on cancelled ctx: err = %v, want Canceled", err)
		}
	})

	t.Run("ExpiredDeadline", func(t *testing.T) {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
		defer cancel()
		if _, err := query.SPD(ctx, e, p, q, nil); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("query.SPD past deadline: err = %v, want DeadlineExceeded", err)
		}
	})

	t.Run("DoorBudget", func(t *testing.T) {
		ctx := query.WithBudget(context.Background(), query.Budget{MaxVisitedDoors: 1})
		var st query.Stats
		if _, err := query.SPD(ctx, e, p, q, &st); !errors.Is(err, query.ErrBudgetExhausted) {
			t.Errorf("query.SPD over door budget: err = %v, want ErrBudgetExhausted", err)
		}
		if st.VisitedDoors < 1 {
			t.Errorf("partial stats lost: VisitedDoors = %d, want >= 1", st.VisitedDoors)
		}
		st.Reset()
		if _, err := query.Range(ctx, e, p, 1000, &st); !errors.Is(err, query.ErrBudgetExhausted) {
			t.Errorf("query.Range over door budget: err = %v, want ErrBudgetExhausted", err)
		}
		st.Reset()
		if _, err := query.KNN(ctx, e, p, 200, &st); !errors.Is(err, query.ErrBudgetExhausted) {
			t.Errorf("query.KNN over door budget: err = %v, want ErrBudgetExhausted", err)
		}
	})

	t.Run("BudgetDeadline", func(t *testing.T) {
		// The budget's own wall-clock cutoff works without a context deadline.
		ctx := query.WithBudget(context.Background(),
			query.Budget{Deadline: time.Now().Add(-time.Millisecond)})
		if _, err := query.SPD(ctx, e, p, q, nil); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("query.SPD past budget deadline: err = %v, want DeadlineExceeded", err)
		}
	})

	t.Run("GenerousLimitsAnswer", func(t *testing.T) {
		// Limits far above the query's cost must not perturb the answer.
		ctx, cancel := context.WithTimeout(
			query.WithBudget(context.Background(), query.Budget{MaxVisitedDoors: 1 << 30}),
			time.Hour)
		defer cancel()
		var st1, st2 query.Stats
		plain, err1 := e.SPD(p, q, &st1)
		bounded, err2 := query.SPD(ctx, e, p, q, &st2)
		if err1 != nil || err2 != nil {
			t.Fatalf("SPD errs: %v, %v", err1, err2)
		}
		if math.Abs(plain.Dist-bounded.Dist) > tol {
			t.Fatalf("bounded SPD = %g, unbounded = %g", bounded.Dist, plain.Dist)
		}
		if st1.VisitedDoors != st2.VisitedDoors {
			t.Fatalf("NVD diverges under generous limits: %d vs %d",
				st1.VisitedDoors, st2.VisitedDoors)
		}
	})

	t.Run("NoGoroutineLeak", func(t *testing.T) {
		before := runtime.NumGoroutine()
		for i := 0; i < 64; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, _ = query.SPD(ctx, e, p, q, nil)
			_, _ = query.Range(ctx, e, p, 100, nil)
		}
		runtime.GC()
		if after := runtime.NumGoroutine(); after > before+4 {
			t.Errorf("goroutines grew from %d to %d across cancelled queries", before, after)
		}
	})
}
