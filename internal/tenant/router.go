// Commit-once engine routing. The paper's experimental analysis finds that
// no index wins every workload: IDINDEX dominates dense range workloads,
// VIP-TREE wins long-haul SPDQ, CINDEX shifts with topology, and the winner
// moves with r and k. So every venue carries a Router that picks the serving
// engine per query class and parameter band at runtime.
//
// Per (class, band) the router runs a short paired explore: each of the
// first ExplorePerEngine routed queries runs on every engine, starting from
// a different engine each time in a seeded order, and the response carries
// the answer of the engine that order names for the slot. Pairing gives
// every engine the same query points, so the engine with the lowest summed
// elapsed time over those queries (Venue.explore times each as the better
// of two runs) is the one committed to; canonical engine order breaks ties. After the commit every routed query goes to that engine
// alone, and no wall-clock value enters a decision again: every ReevalEvery
// answered queries the window's mean visited-door count (NVD, the paper's
// cost metric, deterministic per query) is compared with the committed
// engine's explore mean, and only a drift outside [½×, 2×] re-opens explore.
// Given the seed, the generation, the op stream and the explore timings the
// decision sequence is exact.
//
// Once committed, Choose and Observe are allocation-free and lock-free:
// Choose is two atomic loads (pins, band state), Observe one load and one
// add. A band's mutex is taken only by explore reports, commits and
// re-explores.
package tenant

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"indoorsq/internal/exec"
	"indoorsq/internal/obs"
)

// Ops routed per venue, in canonical order: the three query classes of the
// serving tier (obs op labels, shared with the registry), indexed by
// exec.Kind.
var RoutedOps = []string{obs.OpRange, obs.OpKNN, obs.OpSPD}

const numClasses = 3

// classBands is the number of parameter bands per query class. Band b
// covers parameter values in [2^b, 2^(b+1)); band 0 also takes everything
// below and the last band everything above, so a hostile r or k cannot grow
// router state. Range bands by r and kNN bands by k, spanning Table 5's
// grids (r up to 1000, k up to 100); SPD has one band, since IDINDEX is the
// fastest SPDQ engine at every s2t (EXPERIMENTS.md B5).
var classBands = [numClasses]int{exec.RangeQ: 13, exec.KNNQ: 8, exec.SPDQ: 1}

// RouterConfig tunes the router. The zero value selects the defaults.
type RouterConfig struct {
	// ExplorePerEngine is how many paired explore queries a (class, band)
	// runs on every engine before committing (default 4).
	ExplorePerEngine int
	// ReevalEvery is the drift window: every N answered routed queries of
	// a committed (class, band) their mean NVD is checked against the
	// committed engine's explore mean (default 128).
	ReevalEvery int
}

// maxWindow bounds ReevalEvery so a window's count fits winShift bits.
const (
	winShift  = 20
	maxWindow = 1<<winShift - 1
)

func (c RouterConfig) withDefaults() RouterConfig {
	if c.ExplorePerEngine <= 0 {
		c.ExplorePerEngine = 4
	}
	if c.ReevalEvery <= 0 {
		c.ReevalEvery = 128
	}
	c.ReevalEvery = min(c.ReevalEvery, maxWindow)
	return c
}

// Router picks the serving engine per query class and parameter band for
// one venue. Engines are named by their index in the canonical engine list.
type Router struct {
	cfg     RouterConfig
	reg     *obs.Registry // read only for the decision table's counters
	engines []string      // canonical order
	// orders holds each class's seeded explore order (engine indexes).
	orders [numClasses][]int
	// bands holds every class's bands, class k's from first[k] on.
	bands []band
	first [numClasses]int
	// pins is the deterministic-override table: byte k holds the engine
	// index + 1 pinned for class k (0: routed), so a pin-all is one store.
	pins atomic.Uint32
}

// band is the routing state of one (class, band).
type band struct {
	state atomic.Pointer[bandState]
	// win is the drift window of the current commit: NVD sum << winShift
	// plus the count of answered queries. The routed query count is
	// derived (see routed), so a committed query costs one atomic add.
	win    atomic.Uint64
	closed atomic.Int64 // drift windows closed
	off    atomic.Int64 // routed queries served while exploring
	// other counts committed routes that fed no window: failed queries,
	// routes of a replaced commit, and a commit's unclosed window.
	other atomic.Int64

	mu         sync.Mutex
	cost       []time.Duration // current explore round, per engine
	nvd        []int64
	reported   int
	explores   int64 // explore rounds committed
	reexplores int64 // commits re-opened (NVD drift or a swap)
}

// bandState is one published decision of a band. It is immutable except
// for slots, so its pointer identifies the explore round or commit a route
// was made under.
type bandState struct {
	explore bool
	// engine is the committed engine; while exploring, the engine that
	// serves queries beyond the paired slots (the previous commit, or the
	// class's first explore engine before any).
	engine int
	slots  atomic.Int64 // paired explore slots claimed
	// The last commit's evidence: per engine the paired mean time and
	// NVD; ref is the committed engine's mean NVD.
	meanNs, meanNVD []float64
	ref             float64
	reason          string
}

// NewRouter builds a router over the venue's engine set (canonical order).
// reg is the venue registry whose cumulative counters the decision table
// reports. The seed fixes each class's explore order, so two routers with
// equal seeds fed the same ops and explore timings decide identically.
func NewRouter(engines []string, reg *obs.Registry, seed int64, cfg RouterConfig) *Router {
	r := &Router{
		cfg:     cfg.withDefaults(),
		reg:     reg,
		engines: append([]string(nil), engines...),
	}
	total := 0
	for k := range r.orders {
		order := make([]int, len(engines))
		for i := range order {
			order[i] = i
		}
		// Seeded deterministic shuffle, distinct per class, so concurrent
		// venues don't all serve their first explore slot on one engine.
		rng := rand.New(rand.NewSource(seed*31 + int64(k)))
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		r.orders[k] = order
		r.first[k] = total
		total += classBands[k]
	}
	r.bands = make([]band, total)
	for i := range r.bands {
		b := &r.bands[i]
		b.open(r.orders[r.classOf(i)][0], nil, "explore: no query yet")
	}
	return r
}

// classOf returns the class of global band index i.
func (r *Router) classOf(i int) exec.Kind {
	k := exec.SPDQ
	for k > 0 && i < r.first[k] {
		k--
	}
	return k
}

// bandOf returns the class-local band of op: ⌊log2 r⌋ or ⌊log2 k⌋ clamped
// to the class's bands (NaN lands in band 0, any other kind in band 0).
func bandOf(op *exec.Op) int {
	var x float64
	switch op.Kind {
	case exec.RangeQ:
		x = op.R
	case exec.KNNQ:
		x = float64(op.K)
	default:
		return 0
	}
	b := 0
	for b < classBands[op.Kind]-1 && x >= float64(uint64(2)<<b) {
		b++
	}
	return b
}

// bandLabel names a class-local band, e.g. "r∈[8,16)".
func bandLabel(k exec.Kind, b int) string {
	name := "k"
	switch {
	case k == exec.SPDQ:
		return "every s2t"
	case k == exec.RangeQ:
		name = "r"
	}
	switch {
	case b == 0:
		return name + "<2"
	case b == classBands[k]-1:
		return fmt.Sprintf("%s≥%d", name, 1<<b)
	}
	return fmt.Sprintf("%s∈[%d,%d)", name, 1<<b, 2<<b)
}

// open starts an explore round (caller holds mu or owns b exclusively).
// prev is the state being replaced, nil for a fresh band.
func (b *band) open(fallback int, prev *bandState, reason string) {
	b.reported = 0
	clear(b.cost)
	clear(b.nvd)
	next := &bandState{explore: true, engine: fallback, reason: reason}
	if prev != nil {
		next.meanNs, next.meanNVD, next.ref = prev.meanNs, prev.meanNVD, prev.ref
	}
	b.state.Store(next)
}

// Route is one routing decision. Engine indexes the router's engine list.
type Route struct {
	Engine int
	// Pinned routes feed no evidence. Explore routes are paired explore
	// slots: the caller runs the op on every engine, in ExploreOrder, and
	// reports the runs with Explored; every other route is reported with
	// Observe.
	Pinned, Explore bool

	band  int32
	slot  int32
	state *bandState
}

// Choose returns the route of the next query op (an op exec.Validate
// accepts). It allocates nothing and takes no lock.
func (r *Router) Choose(op *exec.Op) Route {
	k := op.Kind
	if uint(k) >= numClasses {
		k = exec.SPDQ
	}
	if pin := r.pins.Load() >> (8 * k) & 0xff; pin != 0 {
		return Route{Engine: int(pin) - 1, Pinned: true}
	}
	bi := r.first[k] + bandOf(op)
	b := &r.bands[bi]
	st := b.state.Load()
	rt := Route{Engine: st.engine, band: int32(bi), state: st}
	if !st.explore {
		return rt
	}
	b.off.Add(1)
	if s := st.slots.Add(1) - 1; s < int64(r.cfg.ExplorePerEngine) {
		order := r.orders[k]
		rt.Engine, rt.Explore, rt.slot = order[int(s)%len(order)], true, int32(s)
	}
	return rt
}

// ExploreOrder returns the order an explore route runs its op in: every
// engine, starting from the one that serves it, in the seeded order.
func (r *Router) ExploreOrder(rt Route) []int {
	order := r.orders[r.classOf(int(rt.band))]
	out := make([]int, len(order))
	for i := range out {
		out[i] = order[(int(rt.slot)+i)%len(order)]
	}
	return out
}

// Sample is one engine's run of a paired explore query.
type Sample struct {
	Elapsed      time.Duration
	VisitedDoors int
}

// Explored reports an explore route's runs, indexed by engine. A failed or
// cancelled run counts with its elapsed time like any other, so explore
// always finishes. The report that completes the round commits the band to
// the engine with the lowest summed time. Reports of a round that a
// re-explore or swap has replaced are dropped.
func (r *Router) Explored(rt Route, samples []Sample) {
	b := &r.bands[rt.band]
	b.mu.Lock()
	defer b.mu.Unlock()
	if !rt.Explore || b.state.Load() != rt.state {
		return
	}
	if b.cost == nil {
		b.cost = make([]time.Duration, len(r.engines))
		b.nvd = make([]int64, len(r.engines))
	}
	for e, s := range samples {
		b.cost[e] += s.Elapsed
		b.nvd[e] += int64(s.VisitedDoors)
	}
	if b.reported++; b.reported < r.cfg.ExplorePerEngine {
		return
	}
	best := 0
	for e := range b.cost {
		if b.cost[e] < b.cost[best] {
			best = e
		}
	}
	n := float64(b.reported)
	next := &bandState{
		engine:  best,
		meanNs:  make([]float64, len(r.engines)),
		meanNVD: make([]float64, len(r.engines)),
	}
	for e := range b.cost {
		next.meanNs[e] = float64(b.cost[e].Nanoseconds()) / n
		next.meanNVD[e] = float64(b.nvd[e]) / n
	}
	next.ref = next.meanNVD[best]
	next.reason = r.commitReason(int(rt.band), next)
	b.explores++
	b.other.Add(int64(b.win.Swap(0) & maxWindow))
	b.state.Store(next)
}

// commitReason explains a commit: the winner's paired mean time against
// every other engine's, fastest first, and the band.
func (r *Router) commitReason(bi int, st *bandState) string {
	k := r.classOf(bi)
	others := make([]int, 0, len(r.engines)-1)
	for e := range r.engines {
		if e != st.engine {
			others = append(others, e)
		}
	}
	sort.SliceStable(others, func(i, j int) bool { return st.meanNs[others[i]] < st.meanNs[others[j]] })
	us := func(ns float64) string {
		v := ns / 1e3
		if v < 10 {
			return strconv.FormatFloat(v, 'f', 1, 64)
		}
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "commit %s: paired %s µs/query", r.engines[st.engine], us(st.meanNs[st.engine]))
	for i, e := range others {
		sep := ", "
		if i == 0 {
			sep = " vs "
		}
		fmt.Fprintf(&sb, "%s%s %s", sep, r.engines[e], us(st.meanNs[e]))
	}
	fmt.Fprintf(&sb, "; %s", bandLabel(k, bi-r.first[k]))
	return sb.String()
}

// Observe reports the result of a committed route. Pinned and explore-time
// routes, failed queries and routes of a replaced commit feed nothing. Every
// ReevalEvery-th answered query closes the drift window: if (mean NVD + 1)
// left [½, 2] × (the committed engine's explore mean + 1), the band
// re-opens explore. It allocates nothing; only a re-explore takes a lock.
func (r *Router) Observe(rt Route, res *exec.Result) {
	st := rt.state
	if rt.Pinned || st == nil || st.explore {
		return
	}
	b := &r.bands[rt.band]
	if res.Err != nil || b.state.Load() != st {
		b.other.Add(1)
		return
	}
	w := b.win.Add(uint64(res.Stats.VisitedDoors)<<winShift | 1)
	if w&maxWindow != uint64(r.cfg.ReevalEvery) {
		return
	}
	b.win.Add(-w) // close this window, keeping any later observations
	b.closed.Add(1)
	n := float64(r.cfg.ReevalEvery)
	ratio := (float64(w>>winShift)/n + 1) / (st.ref + 1)
	if ratio >= 0.5 && ratio <= 2 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state.Load() != st {
		return
	}
	b.reexplores++
	k := r.classOf(int(rt.band))
	b.open(st.engine, st, fmt.Sprintf("re-explore: window NVD %.2f× %s's explore mean; %s",
		ratio, r.engines[st.engine], bandLabel(k, int(rt.band)-r.first[k])))
}

// Reset re-opens explore in every band, keeping the pins: a swap publishes
// a generation whose data may differ, so every commit is re-decided.
func (r *Router) Reset() {
	for i := range r.bands {
		b := &r.bands[i]
		b.mu.Lock()
		st := b.state.Load()
		if !st.explore {
			b.reexplores++
		}
		b.open(st.engine, st, "explore: swapped to a new generation")
		b.mu.Unlock()
	}
}

// Engines returns the canonical engine set the router decides over.
func (r *Router) Engines() []string { return append([]string(nil), r.engines...) }

// engineIndex returns the canonical index of engine, or -1.
func (r *Router) engineIndex(engine string) int {
	for i, e := range r.engines {
		if e == engine {
			return i
		}
	}
	return -1
}

// classIndex returns the class of op label, or -1.
func classIndex(op string) int {
	for k, o := range RoutedOps {
		if o == op {
			return k
		}
	}
	return -1
}

// Pin deterministically overrides one query class: every query of op is
// served by engine until Unpin. An empty op pins all classes.
func (r *Router) Pin(op, engine string) error {
	e := r.engineIndex(engine)
	if e < 0 {
		return fmt.Errorf("tenant: pin to unknown engine %q (have %v)", engine, r.engines)
	}
	k := classIndex(op)
	if op != "" && k < 0 {
		return fmt.Errorf("tenant: pin on unknown op %q", op)
	}
	r.setPins(k, uint32(e)+1)
	return nil
}

// Unpin removes the override for op ("" removes every pin; an unknown op
// removes none).
func (r *Router) Unpin(op string) {
	if k := classIndex(op); k >= 0 || op == "" {
		r.setPins(k, 0)
	}
}

// setPins stores v as class k's pin byte (k < 0: every class's).
func (r *Router) setPins(k int, v uint32) {
	for {
		cur := r.pins.Load()
		next := v * 0x010101
		if k >= 0 {
			next = cur&^(0xff<<(8*k)) | v<<(8*k)
		}
		if r.pins.CompareAndSwap(cur, next) {
			return
		}
	}
}

// Pins returns a copy of the override table (op -> engine).
func (r *Router) Pins() map[string]string {
	pins := r.pins.Load()
	out := make(map[string]string)
	for k, op := range RoutedOps {
		if e := pins >> (8 * k) & 0xff; e != 0 {
			out[op] = r.engines[e-1]
		}
	}
	return out
}

// Default returns the engine every query class is pinned to — the
// single-venue default engine — or "" when any class routes by cost.
func (r *Router) Default() string {
	pins := r.pins.Load()
	if e := pins & 0xff; e != 0 && pins == e*0x010101 {
		return r.engines[e-1]
	}
	return ""
}

// EngineEvidence is one engine's entry in a decision's evidence table: the
// venue registry's cumulative counters of the queries it served.
type EngineEvidence struct {
	Engine  string `json:"engine"`
	Queries int64  `json:"queries"`
	Errors  int64  `json:"errors"`
}

// PairedEvidence is one engine's mean over a band's last paired explore.
type PairedEvidence struct {
	Engine  string  `json:"engine"`
	MeanNs  float64 `json:"meanNs"`
	MeanNVD float64 `json:"meanNVD"`
}

// BandDecision is the routing state of one (class, band) that has seen
// traffic.
type BandDecision struct {
	Band string `json:"band"`
	// Mode is "explore" or "exploit"; Engine the committed engine ("" before
	// the first commit).
	Mode   string `json:"mode"`
	Engine string `json:"engine"`
	// N counts routed queries; OffCommit those served while exploring.
	N          int64            `json:"n"`
	OffCommit  int64            `json:"offCommit"`
	Explores   int64            `json:"explores"`
	Reexplores int64            `json:"reexplores"`
	Reason     string           `json:"reason"`
	Paired     []PairedEvidence `json:"paired"`
}

// Decision is the current routing state of one query class.
type Decision struct {
	Op string `json:"op"`
	// Mode is "pinned", or the mode of the class's busiest band ("explore"
	// or "exploit"); Engine is the serving target of that band ("" while it
	// has no commit).
	Mode   string `json:"mode"`
	Engine string `json:"engine"`
	Pinned string `json:"pinned,omitempty"`
	// N counts the class's routed queries (the sum over its bands).
	N            int64            `json:"n"`
	ExploreOrder []string         `json:"exploreOrder"`
	Evidence     []EngineEvidence `json:"evidence"`
	Bands        []BandDecision   `json:"bands"`
}

// Decisions returns the routing decision table with its evidence, ordered
// by query class, for the introspection endpoint.
func (r *Router) Decisions() []Decision {
	pins := r.Pins()
	out := make([]Decision, 0, len(RoutedOps))
	for k, op := range RoutedOps {
		d := Decision{Op: op, Mode: "explore", Bands: []BandDecision{}}
		for _, e := range r.orders[k] {
			d.ExploreOrder = append(d.ExploreOrder, r.engines[e])
		}
		var busiest int64 = -1
		for b := 0; b < classBands[k]; b++ {
			bd, ok := r.bands[r.first[k]+b].decision(r, bandLabel(exec.Kind(k), b))
			if !ok {
				continue
			}
			d.N += bd.N
			if bd.N > busiest {
				busiest, d.Mode, d.Engine = bd.N, bd.Mode, bd.Engine
			}
			d.Bands = append(d.Bands, bd)
		}
		if pin := pins[op]; pin != "" {
			d.Mode, d.Engine, d.Pinned = "pinned", pin, pin
		}
		for _, eng := range r.engines {
			ser := r.reg.Series(eng, op)
			d.Evidence = append(d.Evidence, EngineEvidence{
				Engine: eng, Queries: ser.Count.Load(), Errors: ser.Errs.Load(),
			})
		}
		sort.SliceStable(d.Evidence, func(i, j int) bool {
			return d.Evidence[i].Engine < d.Evidence[j].Engine
		})
		out = append(out, d)
	}
	return out
}

// routed returns how many routed queries the band has seen: every one is
// either served while exploring, counted in a drift window, or other.
func (b *band) routed(window int) int64 {
	return b.closed.Load()*int64(window) + int64(b.win.Load()&maxWindow) + b.off.Load() + b.other.Load()
}

// decision snapshots one band; ok is false for a band that has neither
// seen a query nor committed.
func (b *band) decision(r *Router, label string) (BandDecision, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.state.Load()
	d := BandDecision{
		Band: label, Mode: "exploit", N: b.routed(r.cfg.ReevalEvery), OffCommit: b.off.Load(),
		Explores: b.explores, Reexplores: b.reexplores, Reason: st.reason,
		Paired: []PairedEvidence{},
	}
	if d.N == 0 && d.Explores == 0 {
		return d, false
	}
	if st.explore {
		d.Mode = "explore"
	}
	if d.Explores > 0 {
		d.Engine = r.engines[st.engine]
		for e, name := range r.engines {
			d.Paired = append(d.Paired, PairedEvidence{Engine: name, MeanNs: st.meanNs[e], MeanNVD: st.meanNVD[e]})
		}
	}
	return d, true
}
