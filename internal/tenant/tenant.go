// Package tenant is the serving tier: N venues (one, for a single-venue
// deployment) hashed across M shards, each shard holding an immutable
// generation of its venues behind an atomic pointer plus one bounded
// exec.Pool for batch work. Venues boot from a prebuilt bundle, a snapshot
// artifact, a benchmark dataset, or a spacegen seed.
//
// A generation is one atomic unit: the space, its engines, the POI set, the
// cost-based Router, the continuous-query stream and the epoch are all
// fields of the one *Venue a request loads, so no response can pair one
// generation's answer with another's epoch or stream. The per-venue control
// block (metrics registry, reload path) outlives swaps, so routing evidence
// accumulated before a swap keeps steering traffic after it.
package tenant

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

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
	// Shards is the number of shards venues hash across (default
	// min(4, len(specs)), at least 1).
	Shards int
	// Workers bounds each shard's exec.Pool and bundle construction
	// parallelism (<= 0: GOMAXPROCS).
	Workers int
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

	engineList []string // canonical order
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
// the metrics registry the routing evidence lives in, the router seed, and
// the artifact a path-less swap reloads.
type venueCtl struct {
	seed     int64
	reg      *obs.Registry
	snapshot string
}

// Shard owns a disjoint subset of the venues: an atomically published
// generation map and one bounded pool for batch execution.
type Shard struct {
	index int
	pool  *exec.Pool
	// mu serializes swaps on this shard (never taken on the query path).
	mu  sync.Mutex
	gen atomic.Pointer[map[string]*Venue]
}

// Tier is the serving tier: one or more venues across shards.
type Tier struct {
	opts   Options
	shards []*Shard
	ids    []string // sorted venue ids (fixed at boot)
}

// shardIndex places a venue id on a shard (FNV-1a, stable across runs).
func shardIndex(id string, n int) int {
	h := fnv.New64a()
	h.Write([]byte(id))
	return int(h.Sum64() % uint64(n))
}

// New boots the tier: every venue is built (in parallel), seeded with its
// object set, given its control block, and published on its shard.
func New(specs []VenueSpec, opts Options) (*Tier, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("tenant: no venues")
	}
	if opts.Shards <= 0 {
		opts.Shards = len(specs)
		if opts.Shards > 4 {
			opts.Shards = 4
		}
	}
	seen := make(map[string]bool, len(specs))
	for _, s := range specs {
		if s.ID == "" {
			return nil, fmt.Errorf("tenant: venue with empty id")
		}
		if seen[s.ID] {
			return nil, fmt.Errorf("tenant: duplicate venue id %q", s.ID)
		}
		seen[s.ID] = true
	}

	t := &Tier{opts: opts, shards: make([]*Shard, opts.Shards)}
	maps := make([]map[string]*Venue, opts.Shards)
	for i := range t.shards {
		t.shards[i] = &Shard{index: i, pool: &exec.Pool{Workers: opts.Workers}}
		maps[i] = make(map[string]*Venue)
	}

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
		maps[shardIndex(v.ID, opts.Shards)][v.ID] = v
		t.ids = append(t.ids, v.ID)
	}
	sort.Strings(t.ids)
	for i := range t.shards {
		m := maps[i]
		t.shards[i].gen.Store(&m)
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
				bundle.Options{Engines: spec.Engines, Gamma: gamma, Workers: t.opts.Workers})
		}
	default:
		var sp *indoor.Space
		if sp, err = spacegen.Generate(spec.GenSeed, spec.GenParams.Normalize()); err == nil {
			if gamma == 0 {
				gamma = 4
			}
			b, err = bundle.Build(spec.ID, sp,
				bundle.Options{Engines: spec.Engines, Gamma: gamma, Workers: t.opts.Workers})
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
		"isq_moving_updates_total":  i64(mm.Updates.Load),
		"isq_moving_batches_total":  i64(mm.Batches.Load),
		"isq_moving_events_total":   i64(mm.Events.Load),
		"isq_moving_shard_inflight": i64(mm.ShardInFlight.Load),
		"isq_moving_touched_p50":    func() float64 { return float64(mm.Touched.Quantile(0.50)) },
		"isq_moving_touched_p95":    func() float64 { return float64(mm.Touched.Quantile(0.95)) },
		"isq_moving_monitors":       cur(func(v *Venue) float64 { return float64(v.stream.NumQueries()) }),
		"isq_moving_objects":        cur(func(v *Venue) float64 { return float64(v.stream.NumObjects()) }),
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
	return &Venue{
		ID:            id,
		Space:         b.Space,
		Engines:       b.Engines,
		Gamma:         b.Gamma,
		Objects:       objs,
		Origin:        b.Origin,
		Fingerprint:   b.Fingerprint,
		FormatVersion: b.FormatVersion,
		engineList:    b.EngineList(),
		stream:        moving.NewStream(b.Space, moving.StreamOptions{}),
		ctl:           ctl,
	}
}

// NumShards returns the shard count.
func (t *Tier) NumShards() int { return len(t.shards) }

// ShardOf returns the shard index a venue id hashes to.
func (t *Tier) ShardOf(id string) int { return shardIndex(id, len(t.shards)) }

// VenueIDs returns all venue ids, sorted.
func (t *Tier) VenueIDs() []string { return append([]string(nil), t.ids...) }

// Venue returns the current generation of one venue.
func (t *Tier) Venue(id string) (*Venue, bool) {
	sh := t.shards[shardIndex(id, len(t.shards))]
	v, ok := (*sh.gen.Load())[id]
	return v, ok
}

// SwapSnapshot loads a bundle artifact (path "" reloads the venue's
// VenueSpec.Snapshot) and publishes it as the venue's next generation: the
// serving object set and the control block carry over, the epoch advances
// by one, and one shard-map store publishes the whole generation. Requests
// in flight finish on the generation they loaded. The previous generation's
// stream is closed after the publish, so a request still holding it fails
// with moving.ErrStreamClosed instead of touching the new one.
//
// Pins are part of the serving contract: an artifact lacking a pinned
// engine is refused. If the artifact changes the engine set the router is
// replaced (its evidence keyed the old set), primed so pre-swap traffic
// doesn't leak into its first window, and given the old router's pins.
func (t *Tier) SwapSnapshot(id, path string) (*Venue, error) {
	sh := t.shards[shardIndex(id, len(t.shards))]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := *sh.gen.Load()
	v, ok := cur[id]
	if !ok {
		return nil, fmt.Errorf("tenant: unknown venue %q", id)
	}
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
	if !equalStrings(v.engineList, nv.engineList) {
		nv.router = NewRouter(nv.engineList, v.ctl.reg, v.ctl.seed, t.opts.Router)
		nv.router.PrimeBaseline()
		for op, eng := range pins {
			if err := nv.router.Pin(op, eng); err != nil {
				return nil, err
			}
		}
	}
	next := make(map[string]*Venue, len(cur))
	for k, vv := range cur {
		next[k] = vv
	}
	next[id] = nv
	sh.gen.Store(&next)
	v.stream.Close()
	return nv, nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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

// resolve picks the serving engine for one query of class op: an explicit
// override wins (the deterministic knob), otherwise the router decides.
func (v *Venue) resolve(op, override string) (query.Engine, string, error) {
	name := override
	if name == "" {
		name = v.Router().Choose(op)
	}
	e, ok := v.Engines[name]
	if !ok {
		return nil, name, fmt.Errorf("%w: venue %q has no engine %q", ErrUnknownEngine, v.ID, name)
	}
	return e, name, nil
}

// bind attaches the venue registry to the query context so the engine's
// latency lands in the evidence the router reads.
func (v *Venue) bind(ctx context.Context) context.Context {
	return obs.WithRegistry(ctx, v.ctl.reg)
}

// Range answers a routed range query; the second return is the engine that
// served it. override pins the engine for this query ("" routes).
func (v *Venue) Range(ctx context.Context, p indoor.Point, r float64, st *query.Stats, override string) ([]int32, string, error) {
	eng, name, err := v.resolve(obs.OpRange, override)
	if err != nil {
		return nil, name, err
	}
	ids, err := query.Range(v.bind(ctx), eng, p, r, st)
	return ids, name, err
}

// KNN answers a routed k-nearest-neighbors query.
func (v *Venue) KNN(ctx context.Context, p indoor.Point, k int, st *query.Stats, override string) ([]query.Neighbor, string, error) {
	eng, name, err := v.resolve(obs.OpKNN, override)
	if err != nil {
		return nil, name, err
	}
	nn, err := query.KNN(v.bind(ctx), eng, p, k, st)
	return nn, name, err
}

// SPD answers a routed shortest-path-distance query.
func (v *Venue) SPD(ctx context.Context, p, q indoor.Point, st *query.Stats, override string) (query.Path, string, error) {
	eng, name, err := v.resolve(obs.OpSPD, override)
	if err != nil {
		return query.Path{}, name, err
	}
	path, err := query.SPD(v.bind(ctx), eng, p, q, st)
	return path, name, err
}

// opLabel maps an exec op kind to its obs/router query-class label.
func opLabel(k exec.Kind) string {
	switch k {
	case exec.RangeQ:
		return obs.OpRange
	case exec.KNNQ:
		return obs.OpKNN
	default:
		return obs.OpSPD
	}
}

// Run executes a batch against one venue through its shard's pool: each op
// is routed individually (override pins all of them), ops are grouped by
// chosen engine, and each group runs as one pooled sub-batch. Results are
// indexed like ops; the returned engine slice records who served each op.
func (t *Tier) Run(ctx context.Context, venueID string, ops []exec.Op, override string) ([]exec.Result, exec.Batch, []string, error) {
	sh := t.shards[shardIndex(venueID, len(t.shards))]
	v, ok := (*sh.gen.Load())[venueID]
	if !ok {
		return nil, exec.Batch{}, nil, fmt.Errorf("tenant: unknown venue %q", venueID)
	}
	names := make([]string, len(ops))
	groups := make(map[string][]int)
	for i := range ops {
		name := override
		if name == "" {
			name = v.Router().Choose(opLabel(ops[i].Kind))
		}
		if _, ok := v.Engines[name]; !ok {
			return nil, exec.Batch{}, nil, fmt.Errorf("%w: venue %q has no engine %q", ErrUnknownEngine, venueID, name)
		}
		names[i] = name
		groups[name] = append(groups[name], i)
	}
	ctx = v.bind(ctx)
	results := make([]exec.Result, len(ops))
	var batch exec.Batch
	start := time.Now()
	// Canonical engine order keeps multi-engine batches deterministic.
	for _, name := range v.engineList {
		idx := groups[name]
		if len(idx) == 0 {
			continue
		}
		sub := make([]exec.Op, len(idx))
		for j, i := range idx {
			sub[j] = ops[i]
		}
		res, b := sh.pool.RunCtx(ctx, v.Engines[name], sub)
		for j, i := range idx {
			results[i] = res[j]
		}
		batch.Stats.Add(b.Stats)
		batch.QueryTime += b.QueryTime
		batch.Errs += b.Errs
		batch.Cancelled += b.Cancelled
	}
	batch.Wall = time.Since(start)
	return results, batch, names, nil
}
