package query

import (
	"context"
	"errors"
	"time"

	"indoorsq/internal/indoor"
	"indoorsq/internal/obs"
)

// ErrBudgetExhausted is returned when a query exceeds the work budget
// attached to its context (MaxVisitedDoors or MaxWorkBytes). Unlike a
// context cancellation it is a property of the single query, not of the
// caller: the partial Stats describe how far the query got.
var ErrBudgetExhausted = errors.New("query: work budget exhausted")

// CheckInterval is the number of door expansions between cancellation
// probes in the traversal hot loops. Cancellation, deadlines, and budget
// exhaustion are therefore detected within ~CheckInterval expansions, while
// the steady-state per-expansion cost stays at one pointer load and one
// comparison.
const CheckInterval = 64

// Budget bounds the work one query may perform. Zero fields are unlimited.
type Budget struct {
	// MaxVisitedDoors caps door expansions (the NVD metric). The traversal
	// stops with ErrBudgetExhausted once this many doors were expanded.
	MaxVisitedDoors int
	// MaxWorkBytes caps the transient working set recorded through
	// Stats.Alloc.
	MaxWorkBytes int64
	// Deadline, when non-zero, is an absolute wall-clock cutoff checked in
	// the same amortized probe. It complements (and is independent of) any
	// deadline carried by the context itself.
	Deadline time.Time
}

// zero reports whether the budget constrains nothing.
func (b Budget) zero() bool {
	return b.MaxVisitedDoors <= 0 && b.MaxWorkBytes <= 0 && b.Deadline.IsZero()
}

// budgetKey is the context key under which a Budget travels.
type budgetKey struct{}

// WithBudget returns a context carrying the work budget b. Range, KNN and
// SPD honor it; exceeding it surfaces as ErrBudgetExhausted.
func WithBudget(ctx context.Context, b Budget) context.Context {
	return context.WithValue(ctx, budgetKey{}, b)
}

// BudgetFrom extracts the budget attached by WithBudget, if any.
func BudgetFrom(ctx context.Context) (Budget, bool) {
	b, ok := ctx.Value(budgetKey{}).(Budget)
	return b, ok
}

// ctl is the cancellation control block armed into a Stats by Track. It is
// deliberately tiny: the hot loops see only Stats.Door's threshold
// comparison and Stats.Interrupted's cached-error load.
type ctl struct {
	ctx       context.Context
	budget    Budget
	hasBudget bool
	// err caches the first interruption cause (context error, deadline, or
	// ErrBudgetExhausted). Once set it never changes.
	err error
	// next is the VisitedDoors threshold at which Door runs the next probe.
	next int
	// stops counts Stop-probe invocations so sweeps without door
	// expansions amortize their polling too.
	stops int
}

// check runs one full probe: budget limits first (cheap field compares),
// then the context, then the explicit budget deadline. It reschedules the
// next door-count threshold, clamped so MaxVisitedDoors trips exactly.
func (c *ctl) check(st *Stats) {
	if c.err != nil {
		return
	}
	if c.hasBudget {
		if c.budget.MaxVisitedDoors > 0 && st.VisitedDoors >= c.budget.MaxVisitedDoors {
			c.err = ErrBudgetExhausted
			return
		}
		if c.budget.MaxWorkBytes > 0 && st.WorkBytes >= c.budget.MaxWorkBytes {
			c.err = ErrBudgetExhausted
			return
		}
	}
	if err := c.ctx.Err(); err != nil {
		c.err = err
		return
	}
	if c.hasBudget && !c.budget.Deadline.IsZero() && !time.Now().Before(c.budget.Deadline) {
		c.err = context.DeadlineExceeded
		return
	}
	next := st.VisitedDoors + CheckInterval
	if c.hasBudget && c.budget.MaxVisitedDoors > 0 && next > c.budget.MaxVisitedDoors {
		next = c.budget.MaxVisitedDoors
	}
	c.next = next
}

// Track arms st with the cancellation state of ctx. When ctx can never be
// cancelled and carries no budget, st is returned unchanged — untracked
// queries pay nothing. Otherwise st (allocated if nil, so instrumentation-
// free callers still get cancellation) carries a control block that the
// amortized probes in Door/Alloc/Stop consult; an initial probe runs
// immediately so a pre-cancelled context aborts before any traversal work.
func Track(ctx context.Context, st *Stats) *Stats {
	if ctx == nil {
		return st
	}
	b, hasB := BudgetFrom(ctx)
	if hasB && b.zero() {
		hasB = false
	}
	if ctx.Done() == nil && !hasB {
		return st
	}
	if st == nil {
		st = &Stats{}
	}
	if st.ctl != nil && st.ctl.ctx == ctx {
		return st // already armed for this context (nested Track)
	}
	c := &ctl{ctx: ctx, budget: b, hasBudget: hasB}
	st.ctl = c
	c.check(st)
	return st
}

// Interrupted returns the cached interruption cause, or nil while the query
// may keep running. It is safe on nil and untracked receivers and costs two
// branches plus a load — cheap enough for once-per-pop use in hot loops.
func (st *Stats) Interrupted() error {
	if st == nil || st.ctl == nil {
		return nil
	}
	return st.ctl.err
}

// Stop returns a polling closure for traversals that expand no doors (the
// in-partition visibility sweeps in internal/geom), or nil when st is
// untracked so such callers can skip the plumbing entirely. The closure
// amortizes full probes the same way Door does.
func (st *Stats) Stop() func() bool {
	if st == nil || st.ctl == nil {
		return nil
	}
	c := st.ctl
	return func() bool {
		if c.err != nil {
			return true
		}
		if c.stops++; c.stops&15 == 0 {
			c.check(st)
		}
		return c.err != nil
	}
}

// Observation is one observed query armed by Begin. It is a value, not a
// closure, so arming and ending an observation allocates nothing beyond
// what the registry or trace itself records. The zero Observation (an
// unobserved query) ends as a no-op.
type Observation struct {
	st         *Stats
	ser        *obs.Series
	tr         *obs.Trace
	engine, op string
	base       Stats // counter snapshot; deltas are this query's own work
	t0         time.Time
}

// Begin arms st for one observed query: it runs Track (cancellation,
// deadlines, budgets) and, when ctx carries an obs binding (obs.With*),
// attaches the trace to st so engine hot paths can open stage spans, and
// resolves the registry series for (engine, op). The returned Observation's
// End must be called exactly once at query completion; it publishes the
// query's latency and Stats deltas into the registry and appends a summary
// to the trace. Without a binding the Observation is the zero value, so
// unobserved queries pay one context lookup beyond Track and nothing else.
func Begin(ctx context.Context, engine, op string, st *Stats) (*Stats, Observation) {
	st = Track(ctx, st)
	if ctx == nil {
		return st, Observation{}
	}
	b, ok := obs.From(ctx)
	if !ok || (b.Reg == nil && b.Trace == nil) {
		return st, Observation{}
	}
	if st == nil {
		st = &Stats{}
	}
	st.tr = b.Trace
	o := Observation{st: st, tr: b.Trace, engine: engine, op: op, base: *st}
	if b.Reg != nil {
		o.ser = b.Reg.Series(engine, op)
		o.ser.InFlight.Add(1)
	}
	o.t0 = time.Now()
	return st, o
}

// End completes the observation with the query's error (nil on success).
func (o *Observation) End(err error) {
	if o.st == nil {
		return
	}
	dur := time.Since(o.t0)
	st, base := o.st, &o.base
	doors := st.VisitedDoors - base.VisitedDoors
	work := st.WorkBytes - base.WorkBytes
	hits := st.CacheHits - base.CacheHits
	misses := st.CacheMisses - base.CacheMisses
	if o.ser != nil {
		o.ser.InFlight.Add(-1)
		o.ser.Observe(dur, int64(doors), work, hits, misses, err != nil)
	}
	if o.tr != nil {
		q := obs.QuerySummary{
			Engine:        o.engine,
			Op:            o.op,
			Dur:           dur,
			VisitedDoors:  doors,
			WorkBytes:     work,
			PeakWorkBytes: work, // within one query the peak is the final working set
			CacheHits:     hits,
			CacheMisses:   misses,
		}
		if err != nil {
			q.Err = err.Error()
		}
		o.tr.FinishQuery(q)
		st.tr = nil
	}
}

// Range is e.Range bounded by ctx and observed: the query stops with the
// context's error or ErrBudgetExhausted (keeping whatever partial Stats
// accumulated) within ~CheckInterval door expansions of ctx being cancelled,
// its deadline passing, or a WithBudget budget running out, and any obs
// binding on ctx records it under e.Name(). Cancellation rides st into the
// engine's traversal, so this one wrapper serves every engine.
func Range(ctx context.Context, e Engine, p indoor.Point, r float64, st *Stats) (ids []int32, err error) {
	st, o := Begin(ctx, e.Name(), obs.OpRange, st)
	defer func() { o.End(err) }()
	if err = st.Interrupted(); err != nil {
		return nil, err
	}
	return e.Range(p, r, st)
}

// KNN is e.KNN bounded by ctx and observed, like Range.
func KNN(ctx context.Context, e Engine, p indoor.Point, k int, st *Stats) (nn []Neighbor, err error) {
	st, o := Begin(ctx, e.Name(), obs.OpKNN, st)
	defer func() { o.End(err) }()
	if err = st.Interrupted(); err != nil {
		return nil, err
	}
	return e.KNN(p, k, st)
}

// SPD is e.SPD bounded by ctx and observed, like Range.
func SPD(ctx context.Context, e Engine, p, q indoor.Point, st *Stats) (path Path, err error) {
	st, o := Begin(ctx, e.Name(), obs.OpSPD, st)
	defer func() { o.End(err) }()
	if err = st.Interrupted(); err != nil {
		return Path{}, err
	}
	return e.SPD(p, q, st)
}
