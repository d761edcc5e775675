// Cost-based engine routing. The paper's own conclusion — reiterated by the
// extended experimental analysis — is that no single index wins every
// workload: IDINDEX dominates dense range workloads, VIP-TREE wins long-haul
// SPDQ, CINDEX shifts with topology. So instead of hard-coding one engine
// per process, every venue carries a Router that picks the serving engine
// per query class at runtime from observed latencies.
//
// The model is deliberately small. Evidence comes from the venue's
// obs.Registry — the same per-engine × per-op latency histograms /metrics
// scrapes — read as bucket deltas per decision window and folded into an
// exponentially decayed accumulator, so the decision tracks recent traffic
// and re-evaluates as it shifts. Each query class starts in an explore
// phase that cycles through all engines in a seeded deterministic order;
// after that the router exploits the engine with the lowest decayed p95
// (p50 as tie-break), keeps sampling the others at a low deterministic
// cadence so the evidence never goes stale, and re-evaluates every
// ReevalEvery queries. A deterministic-override pin bypasses the model
// entirely, and Decisions exposes the full decision table with its
// evidence for the introspection endpoint.
package tenant

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"indoorsq/internal/obs"
)

// Ops routed per venue, in canonical order: the three query classes of the
// serving tier (obs op labels, shared with the registry).
var RoutedOps = []string{obs.OpRange, obs.OpKNN, obs.OpSPD}

// RouterConfig tunes the cost model. The zero value selects the defaults.
type RouterConfig struct {
	// ExplorePerEngine is how many samples per engine each query class
	// collects in the explore phase before exploiting (default 4).
	ExplorePerEngine int
	// ReevalEvery re-evaluates the decision every N routed queries per
	// class after the explore phase (default 128).
	ReevalEvery int
	// SampleEvery keeps evidence fresh during exploitation: every N-th
	// query is routed round-robin to the next engine instead of the chosen
	// one (default 16; negative disables shadow sampling).
	SampleEvery int
	// Decay is the per-window retention of old evidence in (0,1): at each
	// re-evaluation the accumulated bucket weights are multiplied by Decay
	// before the new window's deltas fold in (default 0.5).
	Decay float64
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.ExplorePerEngine <= 0 {
		c.ExplorePerEngine = 4
	}
	if c.ReevalEvery <= 0 {
		c.ReevalEvery = 128
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 16
	}
	if c.Decay <= 0 || c.Decay >= 1 {
		c.Decay = 0.5
	}
	return c
}

// Router picks the serving engine per query class for one venue.
type Router struct {
	cfg     RouterConfig
	reg     *obs.Registry
	engines []string // canonical order
	ops     map[string]*opRouter
	// pins is the deterministic-override table (op -> engine), published
	// copy-on-write so the hot path reads it with one atomic load.
	pins atomic.Pointer[map[string]string]
}

// opRouter is the per-query-class routing state.
type opRouter struct {
	op string
	// order is the seeded deterministic engine cycle used by the explore
	// phase and by shadow sampling.
	order      []string
	exploreLen int64
	n          atomic.Int64
	choice     atomic.Pointer[string]
	// mu guards the evidence accumulators (taken only on re-evaluation).
	mu      sync.Mutex
	windows int64
	ev      map[string]*evidence
}

// evidence is the decayed latency accounting for one (op, engine).
type evidence struct {
	lastBuckets [obs.NumBuckets + 1]int64
	decayed     [obs.NumBuckets + 1]float64
	total       float64
	p50, p95    time.Duration
}

// NewRouter builds a router over the venue's engine set (canonical order)
// reading evidence from reg. The seed fixes the explore/sampling cycle, so
// two routers with equal seeds route identically given equal evidence.
func NewRouter(engines []string, reg *obs.Registry, seed int64, cfg RouterConfig) *Router {
	cfg = cfg.withDefaults()
	r := &Router{
		cfg:     cfg,
		reg:     reg,
		engines: append([]string(nil), engines...),
		ops:     make(map[string]*opRouter, len(RoutedOps)),
	}
	for i, op := range RoutedOps {
		order := append([]string(nil), r.engines...)
		// Seeded deterministic shuffle, distinct per op, so concurrent
		// venues don't all hammer the same engine first.
		rng := rand.New(rand.NewSource(seed*31 + int64(i)))
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		o := &opRouter{
			op:         op,
			order:      order,
			exploreLen: int64(cfg.ExplorePerEngine) * int64(len(order)),
			ev:         make(map[string]*evidence, len(order)),
		}
		for _, e := range order {
			o.ev[e] = &evidence{}
		}
		r.ops[op] = o
	}
	empty := map[string]string{}
	r.pins.Store(&empty)
	return r
}

// Engines returns the canonical engine set the router decides over.
func (r *Router) Engines() []string { return append([]string(nil), r.engines...) }

// Pin deterministically overrides one query class: every Choose(op) returns
// engine until Unpin. An empty op pins all classes.
func (r *Router) Pin(op, engine string) error {
	found := false
	for _, e := range r.engines {
		if e == engine {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("tenant: pin to unknown engine %q (have %v)", engine, r.engines)
	}
	if op != "" {
		if _, ok := r.ops[op]; !ok {
			return fmt.Errorf("tenant: pin on unknown op %q", op)
		}
	}
	for {
		cur := r.pins.Load()
		next := make(map[string]string, len(*cur)+len(RoutedOps))
		for k, v := range *cur {
			next[k] = v
		}
		if op == "" {
			for _, o := range RoutedOps {
				next[o] = engine
			}
		} else {
			next[op] = engine
		}
		if r.pins.CompareAndSwap(cur, &next) {
			return nil
		}
	}
}

// Unpin removes the override for op ("" removes every pin).
func (r *Router) Unpin(op string) {
	for {
		cur := r.pins.Load()
		next := make(map[string]string, len(*cur))
		for k, v := range *cur {
			if op == "" || k == op {
				continue
			}
			next[k] = v
		}
		if r.pins.CompareAndSwap(cur, &next) {
			return
		}
	}
}

// Pins returns a copy of the override table (op -> engine).
func (r *Router) Pins() map[string]string {
	cur := *r.pins.Load()
	out := make(map[string]string, len(cur))
	for k, v := range cur {
		out[k] = v
	}
	return out
}

// Default returns the engine every query class is pinned to — the
// single-venue default engine — or "" when any class routes by cost.
func (r *Router) Default() string {
	pins := *r.pins.Load()
	def := pins[RoutedOps[0]]
	for _, op := range RoutedOps[1:] {
		if pins[op] != def {
			return ""
		}
	}
	return def
}

// PrimeBaseline marks the registry's current counts as already seen, so the
// first evidence window folds only traffic arriving after the call. Used
// when a swap replaces a venue's router over its persistent registry.
func (r *Router) PrimeBaseline() {
	for _, o := range r.ops {
		o.mu.Lock()
		for _, eng := range r.engines {
			ev := o.ev[eng]
			ser := r.reg.Series(eng, o.op)
			for i := 0; i <= obs.NumBuckets; i++ {
				ev.lastBuckets[i] = ser.Latency.Bucket(i)
			}
		}
		o.mu.Unlock()
	}
}

// Choose returns the engine to serve the next query of class op. Unknown
// ops fall back to the first canonical engine (the caller validates ops at
// the HTTP layer; this keeps Choose total).
func (r *Router) Choose(op string) string {
	o, ok := r.ops[op]
	if !ok {
		return r.engines[0]
	}
	if pin, ok := (*r.pins.Load())[op]; ok {
		return pin
	}
	n := o.n.Add(1)
	if n <= o.exploreLen {
		return o.order[int((n-1)%int64(len(o.order)))]
	}
	k := n - o.exploreLen
	if o.choice.Load() == nil || k%int64(r.cfg.ReevalEvery) == 1 {
		r.reevaluate(o)
	}
	if s := int64(r.cfg.SampleEvery); s > 0 && k%s == 0 {
		return o.order[int((k/s)%int64(len(o.order)))]
	}
	return *o.choice.Load()
}

// reevaluate folds the latest registry window into the decayed evidence and
// re-picks the engine with the lowest decayed p95 (then p50, then canonical
// order). Serialized per op; idempotent if two queries race into the same
// window boundary.
func (r *Router) reevaluate(o *opRouter) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.windows++
	type scored struct {
		engine   string
		p95, p50 time.Duration
		total    float64
	}
	var best *scored
	for _, eng := range r.engines {
		ev := o.ev[eng]
		ser := r.reg.Series(eng, o.op)
		ev.total = 0
		for i := 0; i <= obs.NumBuckets; i++ {
			cur := ser.Latency.Bucket(i)
			delta := cur - ev.lastBuckets[i]
			if delta < 0 {
				delta = 0
			}
			ev.lastBuckets[i] = cur
			ev.decayed[i] = ev.decayed[i]*r.cfg.Decay + float64(delta)
			ev.total += ev.decayed[i]
		}
		ev.p50 = decayedQuantile(&ev.decayed, ev.total, 0.50)
		ev.p95 = decayedQuantile(&ev.decayed, ev.total, 0.95)
		if ev.total <= 0 {
			continue // no evidence yet: not eligible
		}
		// Canonical-order tie-break falls out of the iteration order: a
		// later engine must strictly improve to displace the incumbent.
		s := &scored{engine: eng, p95: ev.p95, p50: ev.p50, total: ev.total}
		if best == nil ||
			s.p95 < best.p95 ||
			(s.p95 == best.p95 && s.p50 < best.p50) {
			best = s
		}
	}
	if best != nil {
		choice := best.engine
		o.choice.Store(&choice)
	} else if o.choice.Load() == nil {
		// Exploit reached with an empty registry (possible only when the
		// registry was swapped out underneath): fall back deterministically.
		choice := o.order[0]
		o.choice.Store(&choice)
	}
}

// decayedQuantile walks the decayed bucket weights like
// obs.Histogram.Quantile walks raw counts (overflow included).
func decayedQuantile(buckets *[obs.NumBuckets + 1]float64, total, q float64) time.Duration {
	if total <= 0 {
		return 0
	}
	rank := q * total
	var seen float64
	for i := 0; i <= obs.NumBuckets; i++ {
		seen += buckets[i]
		if seen >= rank {
			return obs.BucketBound(i)
		}
	}
	return obs.BucketBound(obs.NumBuckets)
}

// EngineEvidence is one engine's entry in a decision's evidence table.
type EngineEvidence struct {
	Engine string `json:"engine"`
	// Samples is the decayed sample weight backing the quantiles; Queries
	// and Errors are the cumulative registry counters.
	Samples float64 `json:"samples"`
	Queries int64   `json:"queries"`
	Errors  int64   `json:"errors"`
	P50     string  `json:"p50"`
	P95     string  `json:"p95"`
	P50Ns   int64   `json:"p50Ns"`
	P95Ns   int64   `json:"p95Ns"`
}

// Decision is the current routing state of one query class.
type Decision struct {
	Op string `json:"op"`
	// Mode is "pinned", "explore", or "exploit".
	Mode   string `json:"mode"`
	Engine string `json:"engine"` // serving target ("" while exploring)
	Pinned string `json:"pinned,omitempty"`
	// N counts routed queries; ExploreRemaining how many explore slots are
	// left; Windows how many re-evaluations have folded evidence.
	N                int64            `json:"n"`
	ExploreRemaining int64            `json:"exploreRemaining"`
	Windows          int64            `json:"windows"`
	ExploreOrder     []string         `json:"exploreOrder"`
	Evidence         []EngineEvidence `json:"evidence"`
}

// Decisions returns the routing decision table with its evidence, ordered
// by query class, for the introspection endpoint.
func (r *Router) Decisions() []Decision {
	pins := *r.pins.Load()
	out := make([]Decision, 0, len(RoutedOps))
	for _, op := range RoutedOps {
		o := r.ops[op]
		n := o.n.Load()
		d := Decision{
			Op:           op,
			N:            n,
			ExploreOrder: append([]string(nil), o.order...),
		}
		if rem := o.exploreLen - n; rem > 0 {
			d.ExploreRemaining = rem
		}
		switch {
		case pins[op] != "":
			d.Mode, d.Engine, d.Pinned = "pinned", pins[op], pins[op]
		case n < o.exploreLen || o.choice.Load() == nil:
			d.Mode = "explore"
		default:
			d.Mode, d.Engine = "exploit", *o.choice.Load()
		}
		o.mu.Lock()
		d.Windows = o.windows
		for _, eng := range r.engines {
			ev := o.ev[eng]
			ser := r.reg.Series(eng, op)
			d.Evidence = append(d.Evidence, EngineEvidence{
				Engine:  eng,
				Samples: ev.total,
				Queries: ser.Count.Load(),
				Errors:  ser.Errs.Load(),
				P50:     ev.p50.String(),
				P95:     ev.p95.String(),
				P50Ns:   ev.p50.Nanoseconds(),
				P95Ns:   ev.p95.Nanoseconds(),
			})
		}
		o.mu.Unlock()
		sort.SliceStable(d.Evidence, func(i, j int) bool {
			return d.Evidence[i].Engine < d.Evidence[j].Engine
		})
		out = append(out, d)
	}
	return out
}
