// Per-query tracing: a Trace rides the context (next to query.Budget) and
// collects per-stage spans — host-partition lookup, index probe,
// door-graph expansion, result refinement — plus one summary per query
// completed under it. Distance-cache hits/misses are carried on the
// summary from the query's Stats counters rather than as spans, because a
// cache probe is far below timer resolution.
package obs

import (
	"context"
	"sync"
	"time"
)

// Stage labels one phase of query execution. The taxonomy is shared by all
// five engines; an engine skips stages it has no work for (e.g. IDModel has
// no index probe).
type Stage uint8

const (
	// StageHost is host-partition lookup: point → containing partition.
	StageHost Stage = iota
	// StageProbe is the index probe: consulting precomputed structures
	// (distance matrix rows, IP-tree leaf/non-leaf matrices, cached
	// door-pair distances) before or instead of graph expansion.
	StageProbe
	// StageExpand is door-graph expansion: Dijkstra-style traversal over
	// doors/partitions.
	StageExpand
	// StageRefine is result refinement: in-partition distance evaluation,
	// candidate filtering, and final sort.
	StageRefine
	numStages
)

var stageNames = [numStages]string{"host_lookup", "index_probe", "graph_expand", "refine"}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Span is one recorded stage interval, with offsets relative to the start
// of the trace.
type Span struct {
	Stage Stage
	Start time.Duration
	Dur   time.Duration
}

// QuerySummary is the per-query completion record appended to a trace.
type QuerySummary struct {
	Engine        string
	Op            string
	Err           string
	Dur           time.Duration
	VisitedDoors  int
	WorkBytes     int64
	PeakWorkBytes int64
	CacheHits     int64
	CacheMisses   int64
}

// Trace records spans and query summaries. Safe for concurrent use (a
// single trace can be shared by queries running at once, as the legs of
// route.Optimized fanned over exec.Map are); a nil *Trace is a valid
// disabled trace on every method.
type Trace struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []Span
	queries []QuerySummary
}

// NewTrace returns a trace whose span offsets are relative to now.
func NewTrace() *Trace {
	return &Trace{t0: time.Now()}
}

// StartSpan opens a span for stage s and returns its end function. The end
// function is idempotent, so callers may both defer it and call it early
// on the happy path. On a nil trace both calls are no-ops.
func (t *Trace) StartSpan(s Stage) func() {
	if t == nil {
		return nopEnd
	}
	start := time.Since(t.t0)
	done := false
	return func() {
		if done {
			return
		}
		done = true
		sp := Span{Stage: s, Start: start, Dur: time.Since(t.t0) - start}
		t.mu.Lock()
		t.spans = append(t.spans, sp)
		t.mu.Unlock()
	}
}

var nopEnd = func() {}

// FinishQuery appends one completed-query summary.
func (t *Trace) FinishQuery(q QuerySummary) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.queries = append(t.queries, q)
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans in recording order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Queries returns a copy of the recorded query summaries.
func (t *Trace) Queries() []QuerySummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]QuerySummary, len(t.queries))
	copy(out, t.queries)
	return out
}

// Bind is what rides the context: an optional registry and an optional
// trace. A query observed under a Bind emits a completion record into
// both (whichever are non-nil).
type Bind struct {
	Reg   *Registry
	Trace *Trace
}

type bindKey struct{}

// With attaches b to the context, replacing any previous binding.
func With(ctx context.Context, b Bind) context.Context {
	return context.WithValue(ctx, bindKey{}, b)
}

// WithRegistry binds r, keeping any trace already on the context.
func WithRegistry(ctx context.Context, r *Registry) context.Context {
	b, _ := From(ctx)
	b.Reg = r
	return With(ctx, b)
}

// WithTrace binds t, keeping any registry already on the context.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	b, _ := From(ctx)
	b.Trace = t
	return With(ctx, b)
}

// From returns the binding on ctx, if any.
func From(ctx context.Context) (Bind, bool) {
	if ctx == nil {
		return Bind{}, false
	}
	b, ok := ctx.Value(bindKey{}).(Bind)
	return b, ok
}
