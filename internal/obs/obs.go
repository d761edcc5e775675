// Package obs is the zero-dependency observability layer: a process-wide
// metrics registry of atomic counters, gauges, and fixed-bucket latency
// histograms keyed by engine × query type, plus a lightweight per-query
// trace (trace.go) that rides the context alongside query.Budget.
//
// The package sits below every other internal package (it imports only the
// standard library) so the query framework, the engines, the query entry
// point (exec.Do), and the HTTP server can all emit into one registry without
// import cycles. Everything is safe for concurrent use; the disabled path
// — no registry bound on the context — costs the caller a single context
// lookup and nothing else.
package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Query-type labels for the registry's op dimension. Engines pass these to
// query.Begin; the server and benches key their reads off the same values.
const (
	OpRange = "range"
	OpKNN   = "knn"
	OpSPD   = "spd"
)

// NumBuckets is the number of finite latency buckets. Bucket i counts
// observations with d <= 1µs << i, covering 1µs .. ~2.2min in powers of
// two; one extra overflow bucket catches everything slower.
const NumBuckets = 28

// BucketBound returns the inclusive upper bound of finite bucket i. For
// i == NumBuckets (the overflow bucket, which has no finite upper bound) it
// returns the overflow marker: twice the largest finite bound, a value no
// finite bucket can produce, so callers can tell "the quantile fell in
// overflow" apart from "the quantile fell in the slowest finite bucket".
func BucketBound(i int) time.Duration {
	return time.Microsecond << i
}

// bucketFor maps a duration to its bucket index (NumBuckets = overflow).
func bucketFor(d time.Duration) int {
	bound := time.Microsecond
	for i := 0; i < NumBuckets; i++ {
		if d <= bound {
			return i
		}
		bound <<= 1
	}
	return NumBuckets
}

// Histogram is a fixed-bucket latency histogram with power-of-two bounds.
// Observe is lock-free; Quantile reads a racy-but-consistent-enough
// snapshot (each bucket is individually atomic).
type Histogram struct {
	buckets [NumBuckets + 1]atomic.Int64
	count   atomic.Int64
	sumNs   atomic.Int64
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketFor(d)].Add(1)
	h.count.Add(1)
	h.sumNs.Add(d.Nanoseconds())
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// SumNs returns the sum of all observed latencies in nanoseconds.
func (h *Histogram) SumNs() int64 { return h.sumNs.Load() }

// Bucket returns the raw count of bucket i (NumBuckets = overflow).
func (h *Histogram) Bucket(i int) int64 { return h.buckets[i].Load() }

// Quantile estimates the q-quantile (0 < q <= 1) as the upper bound of the
// bucket containing the q-th sample. It snapshots the buckets first so the
// total used for the rank matches the counts walked. Returns 0 when empty.
// A quantile that lands in the overflow bucket returns
// BucketBound(NumBuckets), the overflow marker — strictly larger than every
// finite bound — rather than silently underreporting the tail as the
// slowest finite bucket.
func (h *Histogram) Quantile(q float64) time.Duration {
	var snap [NumBuckets + 1]int64
	var total int64
	for i := range snap {
		snap[i] = h.buckets[i].Load()
		total += snap[i]
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i <= NumBuckets; i++ {
		seen += snap[i]
		if seen >= rank {
			return BucketBound(i)
		}
	}
	return BucketBound(NumBuckets) // unreachable: total covers every bucket
}

// Series holds the counters for one (engine, op) pair. All fields are
// atomics; a Series pointer may be cached and written from many goroutines.
type Series struct {
	// InFlight is the number of currently executing queries (gauge).
	InFlight atomic.Int64
	// Count and Errs tally completed queries and how many returned an error.
	Count atomic.Int64
	Errs  atomic.Int64
	// Work counters: sums of the per-query query.Stats deltas.
	VisitedDoors atomic.Int64
	WorkBytes    atomic.Int64
	CacheHits    atomic.Int64
	CacheMisses  atomic.Int64
	// PeakWorkBytes is the largest single-query working set seen (max, not
	// sum — the same merge rule as query.Stats.Add's peak folding).
	PeakWorkBytes atomic.Int64
	// Latency is the query wall-time histogram.
	Latency Histogram
}

// Observe records one completed query into the series.
func (s *Series) Observe(d time.Duration, doors, work, hits, misses int64, failed bool) {
	s.Count.Add(1)
	if failed {
		s.Errs.Add(1)
	}
	s.VisitedDoors.Add(doors)
	s.WorkBytes.Add(work)
	s.CacheHits.Add(hits)
	s.CacheMisses.Add(misses)
	maxStore(&s.PeakWorkBytes, work)
	s.Latency.Observe(d)
}

// maxStore raises a to at least v.
func maxStore(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Key identifies one series in the registry.
type Key struct {
	Engine string
	Op     string
}

// Registry is the process-wide metrics store. The zero value is not usable;
// call NewRegistry. All methods are nil-safe: a nil *Registry behaves as a
// disabled registry (Series returns nil, WriteText writes nothing).
type Registry struct {
	mu     sync.RWMutex
	series map[Key]*Series
	gauges map[string]func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		series: make(map[Key]*Series),
		gauges: make(map[string]func() float64),
	}
}

// Series returns the series for (engine, op), creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Series(engine, op string) *Series {
	if r == nil {
		return nil
	}
	k := Key{Engine: engine, Op: op}
	r.mu.RLock()
	s := r.series[k]
	r.mu.RUnlock()
	if s != nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s = r.series[k]; s == nil {
		s = &Series{}
		r.series[k] = s
	}
	return s
}

// RegisterGauge registers a named gauge evaluated at scrape time. Useful
// for cache sizes, hit counters owned elsewhere, and pool occupancy.
// Re-registering a name replaces the previous function.
func (r *Registry) RegisterGauge(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = fn
	r.mu.Unlock()
}

// Keys returns all series keys, sorted by engine then op.
func (r *Registry) Keys() []Key {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	keys := make([]Key, 0, len(r.series))
	for k := range r.series {
		keys = append(keys, k)
	}
	r.mu.RUnlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Engine != keys[j].Engine {
			return keys[i].Engine < keys[j].Engine
		}
		return keys[i].Op < keys[j].Op
	})
	return keys
}

// quantiles exported on the text format and in snapshots.
var quantiles = []struct {
	label string
	q     float64
}{
	{"0.5", 0.50},
	{"0.95", 0.95},
	{"0.99", 0.99},
}

// WriteText writes the registry in a Prometheus-style plain-text format:
// one line per (metric, engine, op) with deterministic ordering, followed
// by the registered gauges.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	keys := r.Keys()
	type counter struct {
		name string
		get  func(*Series) int64
	}
	counters := []counter{
		{"isq_queries_total", func(s *Series) int64 { return s.Count.Load() }},
		{"isq_query_errors_total", func(s *Series) int64 { return s.Errs.Load() }},
		{"isq_queries_in_flight", func(s *Series) int64 { return s.InFlight.Load() }},
		{"isq_visited_doors_total", func(s *Series) int64 { return s.VisitedDoors.Load() }},
		{"isq_work_bytes_total", func(s *Series) int64 { return s.WorkBytes.Load() }},
		{"isq_peak_work_bytes", func(s *Series) int64 { return s.PeakWorkBytes.Load() }},
		{"isq_cache_hits_total", func(s *Series) int64 { return s.CacheHits.Load() }},
		{"isq_cache_misses_total", func(s *Series) int64 { return s.CacheMisses.Load() }},
	}
	get := func(k Key) *Series {
		r.mu.RLock()
		defer r.mu.RUnlock()
		return r.series[k]
	}
	for _, c := range counters {
		for _, k := range keys {
			s := get(k)
			if s == nil {
				continue
			}
			if _, err := fmt.Fprintf(w, "%s{engine=%q,op=%q} %d\n", c.name, k.Engine, k.Op, c.get(s)); err != nil {
				return err
			}
		}
	}
	for _, k := range keys {
		s := get(k)
		if s == nil {
			continue
		}
		for _, qq := range quantiles {
			if _, err := fmt.Fprintf(w, "isq_query_latency_seconds{engine=%q,op=%q,quantile=%q} %g\n",
				k.Engine, k.Op, qq.label, s.Latency.Quantile(qq.q).Seconds()); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "isq_query_latency_seconds_sum{engine=%q,op=%q} %g\n",
			k.Engine, k.Op, float64(s.Latency.SumNs())/1e9); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "isq_query_latency_seconds_count{engine=%q,op=%q} %d\n",
			k.Engine, k.Op, s.Latency.Count()); err != nil {
			return err
		}
	}
	r.mu.RLock()
	gnames := make([]string, 0, len(r.gauges))
	for name := range r.gauges {
		gnames = append(gnames, name)
	}
	gfns := make([]func() float64, len(gnames))
	sort.Strings(gnames)
	for i, name := range gnames {
		gfns[i] = r.gauges[name]
	}
	r.mu.RUnlock()
	for i, name := range gnames {
		if _, err := fmt.Fprintf(w, "%s %g\n", name, gfns[i]()); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot returns a JSON-friendly view of the registry, used by the
// expvar export on the isqserve debug listener.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return nil
	}
	out := make(map[string]any)
	for _, k := range r.Keys() {
		r.mu.RLock()
		s := r.series[k]
		r.mu.RUnlock()
		if s == nil {
			continue
		}
		ent := map[string]any{
			"count":           s.Count.Load(),
			"errors":          s.Errs.Load(),
			"in_flight":       s.InFlight.Load(),
			"visited_doors":   s.VisitedDoors.Load(),
			"work_bytes":      s.WorkBytes.Load(),
			"peak_work_bytes": s.PeakWorkBytes.Load(),
			"cache_hits":      s.CacheHits.Load(),
			"cache_misses":    s.CacheMisses.Load(),
			"latency_sum_ns":  s.Latency.SumNs(),
		}
		for _, qq := range quantiles {
			ent["latency_p"+qq.label] = s.Latency.Quantile(qq.q).String()
		}
		out[k.Engine+"/"+k.Op] = ent
	}
	r.mu.RLock()
	for name, fn := range r.gauges {
		out[name] = fn()
	}
	r.mu.RUnlock()
	return out
}
