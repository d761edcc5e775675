// Package bench implements the paper's evaluation procedure (Sec. 5.4):
// task A (model construction) and tasks B1-B7 (query processing), measuring
// running time (b1), memory use (b2), and the number of visited doors (b3),
// and emitting one data series per paper figure.
package bench

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"indoorsq/internal/cindex"
	"indoorsq/internal/dataset"
	"indoorsq/internal/exec"
	"indoorsq/internal/idindex"
	"indoorsq/internal/idmodel"
	"indoorsq/internal/indoor"
	"indoorsq/internal/iptree"
	"indoorsq/internal/query"
	"indoorsq/internal/workload"
)

// EngineNames lists the five model/indexes in presentation order.
var EngineNames = []string{"IDModel", "IDIndex", "CIndex", "IPTree", "VIPTree"}

// NewEngine constructs one model/index over a dataset, applying the
// dataset-specific γ for the trees (Sec. 5.3) and the default distance-cache
// policy (memoized door-pair distances).
func NewEngine(name string, info *dataset.Info) (query.Engine, error) {
	return NewEngineOpts(name, info, true)
}

// NewEngineOpts is NewEngine with an explicit distance-cache policy. Only
// CINDEX computes door-pair distances at query time, so only it changes
// behaviour: distCache=false makes it recompute every distance on the fly
// (the paper's strictest "no precomputation" reading and the baseline side
// of cache benchmarks). Answers are identical either way.
func NewEngineOpts(name string, info *dataset.Info, distCache bool) (query.Engine, error) {
	switch name {
	case "IDModel":
		return idmodel.New(info.Space), nil
	case "IDIndex":
		return idindex.New(info.Space), nil
	case "CIndex":
		return cindex.NewOpts(info.Space, cindex.Options{NoDistCache: !distCache}), nil
	case "IPTree":
		return iptree.New(info.Space, iptree.Options{Gamma: info.Gamma}), nil
	case "VIPTree":
		return iptree.New(info.Space, iptree.Options{Gamma: info.Gamma, VIP: true}), nil
	}
	return nil, fmt.Errorf("bench: unknown engine %q", name)
}

// Suite drives the evaluation. The zero value is not ready; use NewSuite.
type Suite struct {
	// Objects is the default object count |O| (Table 5 bold: 1000).
	Objects int
	// Queries is the number of instances per setting (Sec. 5.2: 10).
	Queries int
	// K is the default kNN k (Table 5 bold: 10).
	K int
	// Seed makes all workloads reproducible.
	Seed int64
	// Engines selects the model/indexes to evaluate.
	Engines []string
	// Workers bounds the concurrent query executor: the per-setting query
	// instances of every measurement run through an exec.Pool of this size
	// (1 = sequential, the paper's procedure; 0 = GOMAXPROCS).
	Workers int
	// DistCache selects the door-pair distance-cache policy for engines that
	// compute distances at query time (CINDEX). False forces on-the-fly
	// recomputation; answers are unaffected.
	DistCache bool
	// Timeout, when positive, bounds every measured query with its own
	// deadline. Queries cut off by it are not errors: they count into
	// Measure.TimedOut and their partial cost still enters the averages.
	Timeout time.Duration

	engines     map[string]query.Engine
	objSets     map[string][]query.Object
	cacheTot    map[string]*CacheEffect
	timedOutTot int64
}

// TimedOut returns how many measured queries across the whole suite were
// cut off by the Timeout deadline.
func (s *Suite) TimedOut() int64 { return s.timedOutTot }

// CacheEffect accumulates distance-cache counters of one engine across every
// measurement the suite ran.
type CacheEffect struct {
	Engine string
	Hits   int64
	Misses int64
}

// HitRate returns the fraction of cache lookups served from the memo, or 0
// when the engine performed none.
func (c *CacheEffect) HitRate() float64 {
	if t := c.Hits + c.Misses; t > 0 {
		return float64(c.Hits) / float64(t)
	}
	return 0
}

// NewSuite returns a Suite with the paper's default parameters.
func NewSuite() *Suite {
	return &Suite{
		Objects:   1000,
		Queries:   10,
		K:         10,
		Seed:      1,
		Workers:   1,
		DistCache: true,
		Engines:   append([]string(nil), EngineNames...),
		engines:   make(map[string]query.Engine),
		objSets:   make(map[string][]query.Object),
		cacheTot:  make(map[string]*CacheEffect),
	}
}

// CacheReport returns the per-engine distance-cache effectiveness
// accumulated across every measurement the suite ran, in EngineNames order
// (engines that performed no cache lookups are omitted).
func (s *Suite) CacheReport() []*CacheEffect {
	var out []*CacheEffect
	for _, name := range EngineNames {
		if c, ok := s.cacheTot[name]; ok && c.Hits+c.Misses > 0 {
			out = append(out, c)
		}
	}
	return out
}

// Engine returns the (cached) engine for a dataset.
func (s *Suite) Engine(info *dataset.Info, name string) query.Engine {
	key := info.Name + "/" + name
	if e, ok := s.engines[key]; ok {
		return e
	}
	e, err := NewEngineOpts(name, info, s.DistCache)
	if err != nil {
		panic(err)
	}
	s.engines[key] = e
	return e
}

// objects returns the cached object workload of the given size for a
// dataset; all engines observe the identical set.
func (s *Suite) objects(info *dataset.Info, n int) []query.Object {
	key := fmt.Sprintf("%s/%d", info.Name, n)
	if o, ok := s.objSets[key]; ok {
		return o
	}
	o := workload.New(info.Space, s.Seed+int64(n)*7919).Objects(n)
	s.objSets[key] = o
	return o
}

// Measure is one averaged observation.
type Measure struct {
	TimeUS      float64 // average per-query running time, microseconds
	WallUS      float64 // average wall-clock time per query across the batch
	MemMB       float64 // resident index + average transient working set, MB
	NVD         float64 // average number of visited doors
	CacheHits   float64 // average distance-cache hits per query
	CacheMisses float64 // average distance-cache misses per query
	TimedOut    int     // queries interrupted by the suite's Timeout
}

// measure runs n queries through fn — concurrently when the suite's Workers
// allows — and averages the metrics. Per-query time is measured inside the
// worker; the wall clock spans the whole batch, so TimeUS ≈ WallUS when
// sequential and TimeUS > WallUS under effective parallelism. Each query
// runs under its own context carrying the suite Timeout; interrupted
// queries count into TimedOut instead of failing the measurement.
func (s *Suite) measure(eng query.Engine, n int, fn func(ctx context.Context, i int, st *query.Stats) error) (Measure, error) {
	pool := exec.Pool{Workers: s.Workers}
	times := make([]float64, n)
	var timedOut atomic.Int64
	start := time.Now()
	merged, err := pool.MapCtx(context.Background(), n, func(ctx context.Context, i int, st *query.Stats) error {
		cancel := context.CancelFunc(func() {})
		if s.Timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, s.Timeout)
		}
		t0 := time.Now()
		err := fn(ctx, i, st)
		cancel()
		times[i] = float64(time.Since(t0).Microseconds())
		if err != nil && (errors.Is(err, context.DeadlineExceeded) ||
			errors.Is(err, context.Canceled) || errors.Is(err, query.ErrBudgetExhausted)) {
			timedOut.Add(1)
			return nil
		}
		return err
	})
	wall := time.Since(start)
	if err != nil {
		return Measure{}, err
	}
	var m Measure
	for _, t := range times {
		m.TimeUS += t
	}
	f := float64(n)
	m.TimeUS /= f
	m.WallUS = float64(wall.Microseconds()) / f
	m.MemMB = (float64(merged.WorkBytes)/f + float64(eng.SizeBytes())) / 1e6
	m.NVD = float64(merged.VisitedDoors) / f
	m.CacheHits = float64(merged.CacheHits) / f
	m.CacheMisses = float64(merged.CacheMisses) / f
	m.TimedOut = int(timedOut.Load())
	s.timedOutTot += timedOut.Load()
	if merged.CacheHits+merged.CacheMisses > 0 {
		c := s.cacheTot[eng.Name()]
		if c == nil {
			c = &CacheEffect{Engine: eng.Name()}
			s.cacheTot[eng.Name()] = c
		}
		c.Hits += merged.CacheHits
		c.Misses += merged.CacheMisses
	}
	return m, nil
}

// MeasureRQ runs the range query over all points.
func (s *Suite) MeasureRQ(eng query.Engine, pts []indoor.Point, r float64) (Measure, error) {
	return s.measure(eng, len(pts), func(ctx context.Context, i int, st *query.Stats) error {
		_, err := query.Range(ctx, eng, pts[i], r, st)
		return err
	})
}

// MeasureKNN runs the kNN query over all points.
func (s *Suite) MeasureKNN(eng query.Engine, pts []indoor.Point, k int) (Measure, error) {
	return s.measure(eng, len(pts), func(ctx context.Context, i int, st *query.Stats) error {
		_, err := query.KNN(ctx, eng, pts[i], k, st)
		return err
	})
}

// MeasureSPD runs the fused shortest path/distance query over all pairs.
func (s *Suite) MeasureSPD(eng query.Engine, pairs []workload.Pair) (Measure, error) {
	return s.measure(eng, len(pairs), func(ctx context.Context, i int, st *query.Stats) error {
		_, err := query.SPD(ctx, eng, pairs[i].P, pairs[i].Q, st)
		return err
	})
}
