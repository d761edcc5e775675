// Package tenant is the serving tier: a venue table fixed at boot (one
// entry, for a single-venue deployment), each venue holding its current
// immutable generation behind one atomic pointer. Venues boot from a
// prebuilt bundle, a snapshot artifact, a benchmark dataset, or a spacegen
// seed.
//
// A generation is one atomic unit: the space, its engines, the POI set, the
// cost-based Router, the continuous-query stream and the epoch are all
// fields of the one *Venue a request loads, so no response can pair one
// generation's answer with another's epoch or stream. The per-venue control
// block (metrics registry, reload path) outlives swaps.
package tenant

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"indoorsq/internal/dataset"
	"indoorsq/internal/doorgraph"
	"indoorsq/internal/exec"
	"indoorsq/internal/indoor"
	"indoorsq/internal/moving"
	"indoorsq/internal/obs"
	"indoorsq/internal/query"
	"indoorsq/internal/reach"
	"indoorsq/internal/snapshot/bundle"
	"indoorsq/internal/spacegen"
)

// ErrUnknownEngine marks a query whose engine override names an engine the
// venue's current generation does not serve — a caller error (404 at the
// HTTP layer), not a query failure.
var ErrUnknownEngine = errors.New("tenant: unknown engine")

// VenueSpec describes one venue to boot. Exactly one source wins, checked in
// order: Bundle (prebuilt or already loaded; the tier takes ownership and
// installs the venue's objects on its engines), Snapshot (a bundle artifact
// path), Dataset (a benchmark dataset name), else GenSeed/GenParams (a
// generated venue). Snapshot is also the artifact a path-less swap reloads,
// whichever source booted the venue.
type VenueSpec struct {
	ID        string
	Bundle    *bundle.Bundle
	Snapshot  string
	Dataset   string
	GenSeed   int64
	GenParams spacegen.Params

	// Engines selects which engines to build (build sources only; empty =
	// all five). Snapshot venues serve whatever the artifact carries.
	Engines []string
	// Gamma is the IP/VIP-TREE crucial threshold (0: the dataset's tuned
	// value, or 4 for generated venues).
	Gamma int
	// Objects seeds this many deterministic POIs (ObjectSeed; 0 = derived
	// from GenSeed) into every engine at boot. 0 boots empty.
	Objects    int
	ObjectSeed int64
	// ObjectList, when non-nil, is the POI set to serve instead.
	ObjectList []query.Object
}

// Options configures the tier.
type Options struct {
	// Seed fixes every router's explore order; two tiers booted with equal
	// specs and seeds route identically given equal traffic.
	Seed int64
	// Router tunes the cost model (zero value = defaults).
	Router RouterConfig
}

// Venue is one immutable serving generation of one venue. Query handlers
// load it once (via Tier.Venue) and keep a consistent view for their whole
// request while a swap publishes the next generation.
type Venue struct {
	ID      string
	Space   *indoor.Space
	Engines map[string]query.Engine
	Gamma   int
	Objects []query.Object

	// Provenance: Origin is "build" or "snapshot"; Fingerprint the space's
	// topology hash; FormatVersion the snapshot format of the artifact.
	Origin        string
	Fingerprint   uint64
	FormatVersion uint32

	engineList []string       // canonical order
	engines    []query.Engine // Engines in engineList order
	// router is shared with the previous generation unless the swap
	// changed the engine set.
	router *Router
	// stream is this generation's continuous-query stream. Monitors cache
	// topology-bound door-distance fields, so a swap closes it and the next
	// generation starts empty.
	stream *moving.Stream
	// epoch is 1 at boot and the previous generation's epoch + 1 after.
	epoch uint64
	ctl   *venueCtl
}

// venueCtl is the per-venue state that persists across generation swaps:
// the metrics registry, the router seed, and the artifact a path-less swap
// reloads.
type venueCtl struct {
	seed     int64
	reg      *obs.Registry
	snapshot string
}

// slot is one venue's entry in the tier's table: the generation a query
// loads, and the lock that serializes swaps of that venue alone (never
// taken on the query path).
type slot struct {
	mu  sync.Mutex
	cur atomic.Pointer[Venue]
}

// Tier is the serving tier: one or more venues, each behind its own slot.
type Tier struct {
	opts  Options
	slots map[string]*slot // fixed at boot
	ids   []string         // sorted venue ids
}

// New boots the tier: every venue is built (in parallel), seeded with its
// object set, given its control block, and published in its slot.
func New(specs []VenueSpec, opts Options) (*Tier, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("tenant: no venues")
	}
	t := &Tier{opts: opts, slots: make(map[string]*slot, len(specs))}
	for _, s := range specs {
		if s.ID == "" {
			return nil, fmt.Errorf("tenant: venue with empty id")
		}
		if t.slots[s.ID] != nil {
			return nil, fmt.Errorf("tenant: duplicate venue id %q", s.ID)
		}
		t.slots[s.ID] = &slot{}
		t.ids = append(t.ids, s.ID)
	}
	sort.Strings(t.ids)

	venues := make([]*Venue, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			venues[i], errs[i] = t.buildVenue(specs[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("tenant: venue %q: %w", specs[i].ID, err)
		}
	}
	for _, v := range venues {
		t.slots[v.ID].cur.Store(v)
	}
	return t, nil
}

// buildVenue constructs one venue generation plus its control block.
func (t *Tier) buildVenue(spec VenueSpec) (*Venue, error) {
	b := spec.Bundle
	var err error
	gamma := spec.Gamma
	switch {
	case b != nil:
	case spec.Snapshot != "":
		b, err = bundle.LoadFile(spec.Snapshot)
	case spec.Dataset != "":
		var info *dataset.Info
		if info, err = dataset.Build(spec.Dataset); err == nil {
			if gamma == 0 {
				gamma = info.Gamma
			}
			b, err = bundle.Build(spec.ID, info.Space,
				bundle.Options{Engines: spec.Engines, Gamma: gamma})
		}
	default:
		var sp *indoor.Space
		if sp, err = spacegen.Generate(spec.GenSeed, spec.GenParams.Normalize()); err == nil {
			if gamma == 0 {
				gamma = 4
			}
			b, err = bundle.Build(spec.ID, sp,
				bundle.Options{Engines: spec.Engines, Gamma: gamma})
		}
	}
	if err != nil {
		return nil, err
	}
	if b.Space == nil || len(b.Engines) == 0 {
		return nil, errors.New("bundle has no space or no engines")
	}
	objs := spec.ObjectList
	if objs == nil && spec.Objects > 0 {
		objSeed := spec.ObjectSeed
		if objSeed == 0 {
			objSeed = spec.GenSeed*31 + 7
		}
		objs = spacegen.Objects(b.Space, objSeed, spec.Objects)
	}
	ctl := &venueCtl{
		seed:     t.opts.Seed ^ int64(fnvHash(spec.ID)),
		reg:      obs.NewRegistry(),
		snapshot: spec.Snapshot,
	}
	v := adoptBundle(spec.ID, b, objs, ctl)
	v.router = NewRouter(v.engineList, ctl.reg, ctl.seed, t.opts.Router)
	v.epoch = 1
	t.registerGauges(spec.ID, ctl.reg)
	return v, nil
}

// registerGauges publishes the layer gauges on a venue's registry next to
// its per-query series, so one scrape shows every layer of a query's cost:
// the serving epoch, the distance cache and monitor population of whatever
// generation is published at scrape time, and the process-wide door-graph,
// reach and moving-object counters.
func (t *Tier) registerGauges(id string, reg *obs.Registry) {
	cur := func(get func(v *Venue) float64) func() float64 {
		return func() float64 {
			if v, ok := t.Venue(id); ok {
				return get(v)
			}
			return 0
		}
	}
	dc := func(get func(dc *indoor.DistCache) float64) func() float64 {
		return cur(func(v *Venue) float64 {
			if dc := v.Space.DistCache(); dc != nil {
				return get(dc)
			}
			return 0
		})
	}
	i64 := func(get func() int64) func() float64 { return func() float64 { return float64(get()) } }
	dm, rm, mm := &doorgraph.Metrics, &reach.Metrics, &moving.Metrics
	for name, fn := range map[string]func() float64{
		"isq_serving_epoch":           cur(func(v *Venue) float64 { return float64(v.epoch) }),
		"isq_distcache_hits_total":    dc(func(dc *indoor.DistCache) float64 { return float64(dc.Stats().Hits) }),
		"isq_distcache_misses_total":  dc(func(dc *indoor.DistCache) float64 { return float64(dc.Stats().Misses) }),
		"isq_distcache_fills_total":   dc(func(dc *indoor.DistCache) float64 { return float64(dc.Stats().Fills) }),
		"isq_distcache_size_bytes":    dc(func(dc *indoor.DistCache) float64 { return float64(dc.SizeBytes()) }),
		"isq_doorgraph_sweeps_total":  i64(dm.Sweeps.Load),
		"isq_doorgraph_settled_total": i64(dm.Settled.Load),
		"isq_doorgraph_doors":         i64(dm.Doors.Load),
		"isq_doorgraph_edges":         i64(dm.Edges.Load),
		"isq_doorgraph_size_bytes":    i64(dm.Bytes.Load),
		"isq_reach_sccs":              i64(rm.SCCs.Load),
		"isq_reach_summary_bytes":     i64(rm.SummaryBytes.Load),
		"isq_reach_prune_hits":        i64(rm.PruneHits.Load),
		"isq_reach_prune_skips":       i64(rm.PruneSkips.Load),
		// The touched quantiles summarize the inverted index's selectivity:
		// how many monitors each update actually reached.
		"isq_moving_updates_total": i64(mm.Updates.Load),
		"isq_moving_batches_total": i64(mm.Batches.Load),
		"isq_moving_events_total":  i64(mm.Events.Load),
		"isq_moving_touched_p50":   func() float64 { return float64(mm.Touched.Quantile(0.50)) },
		"isq_moving_touched_p95":   func() float64 { return float64(mm.Touched.Quantile(0.95)) },
		"isq_moving_monitors":      cur(func(v *Venue) float64 { return float64(v.stream.NumQueries()) }),
		"isq_moving_objects":       cur(func(v *Venue) float64 { return float64(v.stream.NumObjects()) }),
	} {
		reg.RegisterGauge(name, fn)
	}
}

func fnvHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// adoptBundle turns a bundle into a venue generation: objects are installed
// on the (not yet published) engines, provenance is carried over, and the
// generation gets a fresh continuous-query stream over its space. The
// caller sets the router and the epoch.
func adoptBundle(id string, b *bundle.Bundle, objs []query.Object, ctl *venueCtl) *Venue {
	for _, e := range b.Engines {
		e.SetObjects(objs)
	}
	list := b.EngineList()
	engines := make([]query.Engine, len(list))
	for i, name := range list {
		engines[i] = b.Engines[name]
	}
	return &Venue{
		ID:            id,
		Space:         b.Space,
		Engines:       b.Engines,
		Gamma:         b.Gamma,
		Objects:       objs,
		Origin:        b.Origin,
		Fingerprint:   b.Fingerprint,
		FormatVersion: b.FormatVersion,
		engineList:    list,
		engines:       engines,
		stream:        moving.NewStream(b.Space, moving.StreamOptions{}),
		ctl:           ctl,
	}
}

// VenueIDs returns all venue ids, sorted.
func (t *Tier) VenueIDs() []string { return append([]string(nil), t.ids...) }

// Venue returns the current generation of one venue.
func (t *Tier) Venue(id string) (*Venue, bool) {
	sl, ok := t.slots[id]
	if !ok {
		return nil, false
	}
	return sl.cur.Load(), true
}

// SwapSnapshot loads a bundle artifact (path "" reloads the venue's
// VenueSpec.Snapshot) and publishes it as the venue's next generation: the
// serving object set and the control block carry over, the epoch advances
// by one, and one store into the venue's slot publishes the whole
// generation. Only this venue's swaps wait on each other. Requests
// in flight finish on the generation they loaded. The previous generation's
// stream is closed after the publish, so a request still holding it fails
// with moving.ErrStreamClosed instead of touching the new one.
//
// Pins are part of the serving contract: an artifact lacking a pinned
// engine is refused. The router and its pins carry over, and every (class,
// band) re-opens explore, since the new generation's data may differ; if
// the artifact changes the engine set the router is replaced (its state
// indexes the old set) and given the old router's pins.
func (t *Tier) SwapSnapshot(id, path string) (*Venue, error) {
	sl, ok := t.slots[id]
	if !ok {
		return nil, fmt.Errorf("tenant: unknown venue %q", id)
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	v := sl.cur.Load()
	if path == "" {
		path = v.ctl.snapshot
	}
	if path == "" {
		return nil, fmt.Errorf("tenant: venue %q has no snapshot path to reload", id)
	}
	b, err := bundle.LoadFile(path)
	if err != nil {
		return nil, err
	}
	pins := v.router.Pins()
	for op, eng := range pins {
		if _, ok := b.Engines[eng]; !ok {
			return nil, fmt.Errorf("tenant: snapshot %s lacks engine %q pinned for %s (has %v)",
				path, eng, op, b.EngineList())
		}
	}
	nv := adoptBundle(id, b, v.Objects, v.ctl)
	nv.epoch = v.epoch + 1
	nv.router = v.router
	if !slices.Equal(v.engineList, nv.engineList) {
		nv.router = NewRouter(nv.engineList, v.ctl.reg, v.ctl.seed, t.opts.Router)
		for op, eng := range pins {
			if err := nv.router.Pin(op, eng); err != nil {
				return nil, err
			}
		}
	}
	sl.cur.Store(nv)
	if nv.router == v.router {
		nv.router.Reset()
	}
	v.stream.Close()
	return nv, nil
}

// EngineList returns the venue's engine names in canonical order.
func (v *Venue) EngineList() []string { return append([]string(nil), v.engineList...) }

// Router returns the generation's router.
func (v *Venue) Router() *Router { return v.router }

// Stream returns the generation's continuous-query stream (closed once a
// swap has published the next generation).
func (v *Venue) Stream() *moving.Stream { return v.stream }

// Registry returns the venue's metrics registry (persists across swaps).
func (v *Venue) Registry() *obs.Registry { return v.ctl.reg }

// Epoch returns the generation's serving epoch: 1 at boot, +1 per swap.
func (v *Venue) Epoch() uint64 { return v.epoch }

// Query answers one routed query on this generation and returns the
// result plus the engine that served it. override names the engine (the
// deterministic knob); "" lets the router choose for op's class and band.
// The venue registry is bound to ctx, so /metrics counts the served query.
// The result is the router's evidence: a paired explore slot also runs op
// on every other engine (see explore), a committed route reports its NVD,
// and pinned or overridden queries and ops exec.Validate rejects feed
// nothing. An engine this generation does not serve fails with
// ErrUnknownEngine in Result.Err.
func (v *Venue) Query(ctx context.Context, op exec.Op, override string) (exec.Result, string) {
	ctx = obs.WithRegistry(ctx, v.ctl.reg)
	if override != "" {
		eng, ok := v.Engines[override]
		if !ok {
			return exec.Result{Err: fmt.Errorf("%w: venue %q has no engine %q", ErrUnknownEngine, v.ID, override)}, override
		}
		return exec.Do(ctx, eng, op), override
	}
	if err := exec.Validate(op); err != nil {
		return exec.Result{Err: err}, ""
	}
	rt := v.router.Choose(&op)
	res := exec.Do(ctx, v.engines[rt.Engine], op)
	if rt.Explore {
		v.explore(ctx, op, rt, res)
	} else {
		v.router.Observe(rt, &res)
	}
	return res, v.engineList[rt.Engine]
}

// explore completes a paired explore slot whose serving run is served: op
// runs on every engine in the slot's seeded order, with neither the
// registry nor a trace bound (only the served run is a query of the venue),
// and every engine's time and NVD go to the router. An engine's time is the
// better of two back-to-back runs, so a single preemption, GC assist or
// cold cache line cannot decide a commit; a failed run's time counts too.
func (v *Venue) explore(ctx context.Context, op exec.Op, rt Route, served exec.Result) {
	samples := make([]Sample, len(v.engines))
	bare := obs.With(ctx, obs.Bind{})
	for _, e := range v.router.ExploreOrder(rt) {
		res := served
		if e != rt.Engine {
			res = exec.Do(bare, v.engines[e], op)
		}
		again := exec.Do(bare, v.engines[e], op)
		samples[e] = Sample{Elapsed: min(res.Elapsed, again.Elapsed), VisitedDoors: res.Stats.VisitedDoors}
	}
	v.router.Explored(rt, samples)
}
