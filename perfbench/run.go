package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"indoorsq/internal/doorgraph"
	"indoorsq/internal/moving"
	"indoorsq/internal/reach"
)

// counters is a reading of the process-wide layer counters the per-layer
// metrics take deltas of.
type counters struct {
	cacheHits, cacheMisses int64
	settled                int64
	pruneHits, pruneSkips  int64
	updates, events        int64
}

func readCounters(s *system) counters {
	c := counters{
		settled:    doorgraph.Metrics.Settled.Load(),
		pruneHits:  reach.Metrics.PruneHits.Load(),
		pruneSkips: reach.Metrics.PruneSkips.Load(),
		updates:    moving.Metrics.Updates.Load(),
		events:     moving.Metrics.Events.Load(),
	}
	for _, id := range s.tier.VenueIDs() {
		st := s.space(id).DistCache().Stats()
		c.cacheHits += st.Hits
		c.cacheMisses += st.Misses
	}
	return c
}

// querySeqLen is the length of each client's query sequence; clients cycle
// through it.
const querySeqLen = 20000

// gatePerClient is the number of each client's first requests the answer
// gate checks.
const gatePerClient = 50

func run(cfg config) (*result, *report, error) {
	def, err := lookupWorkload(cfg.workload, cfg.tiny)
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "snapshots-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	var sys *system
	var boots []bootTimes
	for i := 0; i < max(cfg.setups, 1); i++ {
		if sys != nil {
			sys.close()
		}
		// Each set-up starts from a collected heap, so no set-up pays for
		// the garbage of the one before.
		runtime.GC()
		if sys, err = boot(def, dir, cfg.seed); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		boots = append(boots, sys.times)
	}
	defer sys.close()
	heap := liveHeapBytes()

	rep := &report{Fingerprint: newFingerprint(cfg), Seconds: cfg.window.Seconds(), Traced: cfg.traced}
	var seqs [][]request
	if def.ingest() {
		seqs, err = planIngest(def, sys, cfg.seed, clients, ingestSteps(def))
	} else {
		seqs = planQueries(def, sys, cfg.seed, clients, querySeqLen)
		rep.QueriesChecked, err = gateQueries(sys, seqs, gatePerClient)
		if err != nil {
			rep.GateError = err.Error()
			err = nil
		}
	}
	if err != nil {
		return nil, nil, err
	}

	sch := schedule{warm: cfg.warm, a: cfg.window}
	if cfg.traced {
		sch.a, sch.b = cfg.window/2, cfg.window-cfg.window/2
	}
	// A traced run reads the layer counters when phase B starts and after
	// the clients stop.
	before := make(chan counters, 1)
	if cfg.traced {
		go func() {
			time.Sleep(sch.warm + sch.a)
			before <- readCounters(sys)
		}()
	}
	runs := drive(sys.addr, seqs, sch)
	after := readCounters(sys)
	for c, r := range runs {
		if r.err != nil {
			return nil, nil, fmt.Errorf("client %d: %w", c, r.err)
		}
		rep.Requests += r.sent
	}

	if def.ingest() && rep.GateError == "" {
		last := lastPositions(sys.seedPos, seqs, sentCounts(runs, false))
		if rep.MonitorsChecked, err = gateMonitors(sys, last); err != nil {
			rep.GateError = err.Error()
		}
	}

	res := &result{Correct: rep.GateError == "", Metrics: make(map[string]metric)}
	phase := int8(phaseA)
	if cfg.traced {
		phase = phaseB
	}
	for _, r := range runs {
		for _, s := range r.samples {
			if s.phase != phase {
				continue
			}
			res.Attempted += int64(s.ops)
			if !s.ok {
				res.Failed += int64(s.ops)
			}
		}
	}
	if res.Attempted == 0 {
		return nil, nil, fmt.Errorf("no request completed in the measured window")
	}

	if !cfg.traced {
		rep.Slices = endToEnd(res, def, runs, sch, boots, heap)
		return res, rep, nil
	}
	if err := perLayer(res, rep, def, sys, seqs, runs, sch, <-before, after, boots); err != nil {
		return nil, nil, err
	}
	return res, rep, nil
}

// ingestSteps is the length of the ingest motion stream. Clients cycle
// through their share of it, so objects revisit earlier positions after
// the wrap; the sequence is long enough that each object moves about ten
// times per cycle.
func ingestSteps(def *workloadDef) int { return 10 * def.movers }

// sentCounts returns how many requests each client sent in total, or, with
// beforeB, before its first phase-B request.
func sentCounts(runs []clientRun, beforeB bool) []int {
	out := make([]int, len(runs))
	for c, r := range runs {
		out[c] = r.sent
		if beforeB && r.bStart >= 0 {
			out[c] = r.bStart
		}
	}
	return out
}

// liveHeapBytes is the live Go heap after a forced collection.
func liveHeapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

const mb = 1e6

// percentile is the nearest-rank q-quantile of sorted latencies.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// throughput is the measured operations per second of one phase: queries,
// or position updates for ingest (monitor reads are not counted).
func throughput(def *workloadDef, runs []clientRun, phase int8, d time.Duration) float64 {
	var ops int64
	for _, r := range runs {
		for _, s := range r.samples {
			if s.phase == phase && s.ok && (!def.ingest() || s.kind == kindUpdate) {
				ops += int64(s.ops)
			}
		}
	}
	return float64(ops) / d.Seconds()
}

// endToEnd fills the untraced run's metrics from phase A. The window is
// cut into one-second slices; throughput and each latency percentile are
// the median over the slices, so a few seconds of interference from
// outside the process move them less than a whole-window figure. It
// returns the per-slice throughputs for the report.
func endToEnd(res *result, def *workloadDef, runs []clientRun, sch schedule, boots []bootTimes, heap uint64) []float64 {
	n := max(1, int(sch.a/time.Second))
	slice := sch.a / time.Duration(n)
	lats := make([][]time.Duration, n)
	ops := make([]int64, n)
	for _, r := range runs {
		for _, s := range r.samples {
			if s.phase != phaseA {
				continue
			}
			i := min(int((s.at-sch.warm)/slice), n-1)
			lats[i] = append(lats[i], s.lat)
			if s.ok && (!def.ingest() || s.kind == kindUpdate) {
				ops[i] += int64(s.ops)
			}
		}
	}
	var thr, p50, p95, p99 []float64
	for i := range lats {
		if len(lats[i]) == 0 {
			continue
		}
		slices.Sort(lats[i])
		thr = append(thr, float64(ops[i])/slice.Seconds())
		p50 = append(p50, us(percentile(lats[i], 0.50)))
		p95 = append(p95, us(percentile(lats[i], 0.95)))
		p99 = append(p99, us(percentile(lats[i], 0.99)))
	}
	setups := make([]float64, len(boots))
	for i, b := range boots {
		setups[i] = b.total.Seconds()
	}
	m := res.Metrics
	m["throughput_ops_s"] = metric{median(thr), "1/s"}
	m["latency_p50_us"] = metric{median(p50), "us"}
	m["latency_p95_us"] = metric{median(p95), "us"}
	m["latency_p99_us"] = metric{median(p99), "us"}
	m["success_ratio"] = metric{1 - float64(res.Failed)/float64(res.Attempted), "ratio"}
	m["setup_s"] = metric{median(setups), "s"}
	m["heap_mb"] = metric{float64(heap) / mb, "MB"}
	return thr
}
