package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"indoorsq/internal/exec"
	"indoorsq/internal/indoor"
	"indoorsq/internal/query"
	"indoorsq/internal/snapshot/bundle"
	"indoorsq/internal/spacegen"
	"indoorsq/internal/tenant"
	"indoorsq/internal/workload"
)

// routeVenue is one venue of the skewed multi-venue mix: its generated
// shape plus the (range, knn, spd) weights its traffic is skewed toward.
type routeVenue struct {
	id      string
	seed    int64
	params  spacegen.Params
	weights [3]float64
	radius  float64
}

func routeVenues(smoke bool) []routeVenue {
	if smoke {
		return []routeVenue{
			{"boutique", 31, spacegen.Params{Floors: 1, Rows: 2, Cols: 3, ExtraDoors: 2}, [3]float64{0.7, 0.2, 0.1}, 8},
			{"mall", 32, spacegen.Params{Floors: 1, Rows: 2, Cols: 4, ExtraDoors: 2}, [3]float64{0.1, 0.2, 0.7}, 10},
		}
	}
	return []routeVenue{
		{"boutique", 31, spacegen.Params{Floors: 1, Rows: 3, Cols: 4, ExtraDoors: 3}, [3]float64{0.7, 0.2, 0.1}, 12},
		{"mall", 32, spacegen.Params{Floors: 2, Rows: 3, Cols: 5, ExtraDoors: 4}, [3]float64{0.2, 0.7, 0.1}, 16},
		{"campus", 33, spacegen.Params{Floors: 3, Rows: 4, Cols: 6, ExtraDoors: 5}, [3]float64{0.1, 0.2, 0.7}, 20},
	}
}

// plan is one venue's deterministic op stream.
func (cfg routeVenue) plan(sp *indoor.Space, n int) []exec.Op {
	pts := workload.New(sp, cfg.seed*5+1).Points(64)
	rng := rand.New(rand.NewSource(cfg.seed * 11))
	ops := make([]exec.Op, n)
	for i := range ops {
		p := pts[rng.Intn(len(pts))]
		x := rng.Float64()
		switch {
		case x < cfg.weights[0]:
			ops[i] = exec.Op{Kind: exec.RangeQ, P: p, R: cfg.radius}
		case x < cfg.weights[0]+cfg.weights[1]:
			ops[i] = exec.Op{Kind: exec.KNNQ, P: p, K: 5}
		default:
			ops[i] = exec.Op{Kind: exec.SPDQ, P: p, Q: pts[rng.Intn(len(pts))]}
		}
	}
	return ops
}

// runRoute replays the identical skewed multi-venue stream through
// tenant.Venue.Query pinned to each engine (the ?engine= override) and then
// routed (each venue's router commits per query class and band after a
// paired explore), one concurrent batch per venue per round. A warmup
// pass runs every engine over every stream first, so all modes meet
// equally warm distance caches.
func runRoute(sc *scenario, smoke bool) error {
	cfgs := routeVenues(smoke)
	engines := bundle.EngineNames
	batches, batch, objects := 40, 40, 200
	if smoke {
		engines = []string{"IDModel", "IDIndex", "CIndex"}
		batches, batch, objects = 5, 8, 24
	}
	specs := make([]tenant.VenueSpec, len(cfgs))
	for i, cfg := range cfgs {
		specs[i] = tenant.VenueSpec{
			ID: cfg.id, GenSeed: cfg.seed, GenParams: cfg.params,
			Engines: engines, Objects: objects,
		}
	}
	tier, err := tenant.New(specs, tenant.Options{Seed: 1})
	if err != nil {
		return err
	}
	sc.Params["venues"], sc.Params["engines"] = len(cfgs), engines
	sc.Params["batches_per_venue"], sc.Params["batch"], sc.Params["objects_per_venue"] = batches, batch, objects
	sc.Gate = "routed and every pinned engine answer like the first pinned engine: range id sets, kNN distance per rank and SPD distance within 1e-6, same errors; routed mode has no errors and every venue's router decides all three query classes"

	// replay runs one batch on a venue across GOMAXPROCS workers
	// (exec.Map), as the server's concurrent requests would; an unserved
	// engine aborts it.
	replay := func(id string, ops []exec.Op, override string) ([]exec.Result, error) {
		v, _ := tier.Venue(id)
		out := make([]exec.Result, len(ops))
		exec.Map(len(ops), func(i int, _ *query.Stats) error {
			out[i], _ = v.Query(context.Background(), ops[i], override)
			return nil
		})
		for _, r := range out {
			if errors.Is(r.Err, tenant.ErrUnknownEngine) {
				return nil, r.Err
			}
		}
		return out, nil
	}

	plans := make(map[string][]exec.Op, len(cfgs))
	for _, cfg := range cfgs {
		v, _ := tier.Venue(cfg.id)
		plans[cfg.id] = cfg.plan(v.Space, batches*batch)
		for _, eng := range engines {
			if _, err := replay(cfg.id, plans[cfg.id], eng); err != nil {
				return err
			}
		}
	}

	// runMode replays every venue's stream batch by batch, one batch per
	// venue in turn, and returns the per-op latencies plus each venue's
	// results.
	runMode := func(override string) ([]time.Duration, map[string][]exec.Result, error) {
		var lat []time.Duration
		res := make(map[string][]exec.Result, len(cfgs))
		for b := 0; b < batches; b++ {
			for _, cfg := range cfgs {
				ops := plans[cfg.id][b*batch : (b+1)*batch]
				out, err := replay(cfg.id, ops, override)
				if err != nil {
					return nil, nil, err
				}
				for _, r := range out {
					lat = append(lat, r.Elapsed)
				}
				res[cfg.id] = append(res[cfg.id], out...)
			}
		}
		return lat, res, nil
	}

	var base map[string][]exec.Result
	var bestP95, worstP95 float64
	for _, mode := range append(append([]string(nil), engines...), "") {
		lat, res, err := runMode(mode)
		if err != nil {
			return err
		}
		label := "pin:" + mode
		if mode == "" {
			label = "routed"
		}
		if base == nil {
			base = res
		}
		for _, cfg := range cfgs {
			if err := sameResults(plans[cfg.id], base[cfg.id], res[cfg.id], 1e-6); err != nil {
				return fmt.Errorf("%s venue %s: %w", label, cfg.id, err)
			}
			for _, r := range res[cfg.id] {
				if mode == "" && r.Err != nil {
					return fmt.Errorf("gate: routed venue %s: %w", cfg.id, r.Err)
				}
			}
		}
		if smoke {
			continue
		}
		m := latencyMetrics(lat)
		sc.row(label, m)
		if mode == "" {
			vsBest := deltaPct(bestP95, m["p95_ns"])
			sc.bound("routed p95 < worst pinned p95", m["p95_ns"]-worstP95, m["p95_ns"] < worstP95)
			sc.bound("routed p95 vs best pinned p95, pct <= 10", vsBest, vsBest <= 10)
		} else if bestP95 == 0 {
			bestP95, worstP95 = m["p95_ns"], m["p95_ns"]
		} else {
			bestP95, worstP95 = math.Min(bestP95, m["p95_ns"]), math.Max(worstP95, m["p95_ns"])
		}
	}

	for _, cfg := range cfgs {
		v, _ := tier.Venue(cfg.id)
		ds := v.Router().Decisions()
		if len(ds) != 3 {
			return fmt.Errorf("gate: venue %s router has %d decisions, want 3", cfg.id, len(ds))
		}
		if smoke {
			continue
		}
		for _, d := range ds {
			for _, b := range d.Bands {
				sc.row(fmt.Sprintf("decision/%s/%s/%s=%s", cfg.id, d.Op, b.Band, b.Engine), map[string]float64{
					"routed_queries": float64(b.N), "explores": float64(b.Explores),
					"reexplores": float64(b.Reexplores), "off_commit_share": float64(b.OffCommit) / float64(b.N),
				})
			}
		}
	}
	return nil
}

func latencyMetrics(lat []time.Duration) map[string]float64 {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	var total time.Duration
	for _, l := range lat {
		total += l
	}
	at := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(lat)))) - 1
		return float64(lat[max(i, 0)].Nanoseconds())
	}
	return map[string]float64{
		"ops": float64(len(lat)), "p50_ns": at(0.50), "p95_ns": at(0.95),
		"mean_ns": float64(total.Nanoseconds()) / float64(len(lat)), "total_query_s": total.Seconds(),
	}
}
