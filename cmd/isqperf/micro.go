package main

import (
	"context"
	"fmt"

	"indoorsq/internal/cindex"
	"indoorsq/internal/exec"
	"indoorsq/internal/indoor"
	"indoorsq/internal/obs"
	"indoorsq/internal/query"
	"indoorsq/internal/testspaces"
	"indoorsq/internal/workload"
)

// micro is the CINDEX set-up the cache, ctx and obs scenarios share: a
// RandomGridConcave grid (concave partitions on every floor, so door-pair
// distances cost a visibility-graph search) and a mix of range r=40, kNN
// k=10 and SPD queries. Each scenario builds its own space, so no scenario
// inherits another's warm distance cache.
type micro struct {
	sp   *indoor.Space
	objs []query.Object
	ops  []exec.Op
}

func newMicro(sc *scenario, smoke bool) micro {
	rows, cols, floors, objects, points := 6, 6, 2, 500, 64
	if smoke {
		rows, cols, floors, objects, points = 4, 4, 2, 60, 12
	}
	sp := testspaces.RandomGridConcave(5, rows, cols, floors, 6)
	gen := workload.New(sp, 1)
	objs := gen.Objects(objects)
	ops := mixOps(gen.Points(points), points, 40, 10)
	sc.Params["venue"] = fmt.Sprintf("RandomGridConcave %dx%dx%d", rows, cols, floors)
	sc.Params["partitions"], sc.Params["doors"] = sp.NumPartitions(), sp.NumDoors()
	sc.Params["objects"], sc.Params["ops"] = objects, len(ops)
	return micro{sp, objs, ops}
}

func (m micro) cindex(opt cindex.Options) *cindex.Index {
	e := cindex.NewOpts(m.sp, opt)
	e.SetObjects(m.objs)
	return e
}

// warm fills e's lazy distance cache over every op, so no timed side pays
// first-touch fills.
func (m micro) warm(e query.Engine) {
	answers(context.Background(), &exec.Pool{}, e, m.ops)
}

// gate requires every context in ctxs to answer like the first, bit for bit.
func (m micro) gate(e query.Engine, pools []*exec.Pool, ctxs []context.Context) error {
	want := answers(ctxs[0], pools[0], e, m.ops)
	for i := 1; i < len(ctxs); i++ {
		if err := sameResults(m.ops, want, answers(ctxs[i], pools[i], e, m.ops), 0); err != nil {
			return fmt.Errorf("side %d: %w", i, err)
		}
	}
	return nil
}

var classes = []struct {
	name string
	kind exec.Kind
}{{"spd", exec.SPDQ}, {"range_r40", exec.RangeQ}, {"knn_k10", exec.KNNQ}}

// runCache compares CINDEX recomputing every intra-partition door-to-door
// distance (the paper's strict no-precomputation behaviour) with the same
// engine going through the space's lazy sharded cache, plus the d2d kernel
// on one concave partition, cold vs warm.
func runCache(sc *scenario, smoke bool) error {
	m := newMicro(sc, smoke)
	uncached := m.cindex(cindex.Options{NoDistCache: true})
	cached := m.cindex(cindex.Options{})
	sc.Params["d2d_kernel_concave"] = "door pairs of one concave partition; before WithinDoors, after WithinDoorsCached on a warm cache"
	sc.Params["before"], sc.Params["after"] = "CINDEX, distance cache off", "CINDEX through the lazy door-pair cache"
	sc.Gate = "cached CINDEX answers range/kNN/SPD bit-identically to uncached"
	var p exec.Pool
	if err := sameResults(m.ops, answers(context.Background(), &p, uncached, m.ops), answers(context.Background(), &p, cached, m.ops), 0); err != nil {
		return err
	}
	if smoke {
		return nil
	}
	// The cached side warms during its first iterations; the harness's
	// steady state is the amortized behaviour the cache exists for.
	for _, c := range classes {
		ops := opsOf(m.ops, c.kind)
		sc.pair(c.name, passOf(nil, uncached, ops), passOf(nil, cached, ops))
	}

	cv := indoor.PartitionID(-1)
	for vi := 0; vi < m.sp.NumPartitions() && cv < 0; vi++ {
		part := m.sp.Partition(indoor.PartitionID(vi))
		if part.Kind != indoor.Staircase && !part.Poly.IsConvex() && len(part.Doors) >= 2 {
			cv = indoor.PartitionID(vi)
		}
	}
	if cv < 0 {
		return fmt.Errorf("no concave partition in the generated space")
	}
	doors := m.sp.Partition(cv).Doors
	for _, a := range doors {
		for _, b := range doors {
			m.sp.WithinDoorsCached(cv, a, b)
		}
	}
	next := func(i int) indoor.DoorID { return doors[(i+1)%len(doors)] }
	_, warm, _ := sc.pair("d2d_kernel_concave", side{len(doors), func() {
		for i, a := range doors {
			m.sp.WithinDoors(cv, a, next(i))
		}
	}}, side{len(doors), func() {
		for i, a := range doors {
			m.sp.WithinDoorsCached(cv, a, next(i))
		}
	}})
	sc.bound("d2d_kernel_concave warm cached allocs_op == 0", warm.allocs, warm.allocs == 0)

	cs := m.sp.DistCache().Stats()
	parts, cells := m.sp.DistCache().Filled()
	sc.row("cache_state", map[string]float64{
		"hits": float64(cs.Hits), "misses": float64(cs.Misses), "fills": float64(cs.Fills),
		"partitions_resident": float64(parts), "cells_filled": float64(cells),
		"size_bytes": float64(m.sp.DistCache().SizeBytes()),
	})
	return nil
}

// runCtx compares the plain query entry points (no context: query.Track is
// never reached) with query.SPD/Range/KNN under a live, never-cancelled
// context, which polls ctx.Err every query.CheckInterval door expansions;
// spd_budget also arms a generous work budget.
func runCtx(sc *scenario, smoke bool) error {
	m := newMicro(sc, smoke)
	e := m.cindex(cindex.Options{})
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	budget := query.WithBudget(live, query.Budget{MaxVisitedDoors: 1 << 30, MaxWorkBytes: 1 << 40})
	sc.Params["before"], sc.Params["after"] = "plain entry points", "query.* under a live cancellable context"
	sc.Params["check_interval"] = query.CheckInterval
	sc.Gate = "tracked and budgeted CINDEX answer range/kNN/SPD bit-identically to untracked"
	var p exec.Pool
	if err := m.gate(e, []*exec.Pool{&p, &p, &p}, []context.Context{context.Background(), live, budget}); err != nil {
		return err
	}
	if smoke {
		return nil
	}
	m.warm(e)
	spd := opsOf(m.ops, exec.SPDQ)
	_, _, d := sc.pair("spd", passOf(nil, e, spd), passOf(live, e, spd))
	sc.boundAtMost("spd ns_op_delta_pct", d, 2)
	sc.pair("spd_budget", passOf(nil, e, spd), passOf(budget, e, spd))
	for _, c := range classes[1:] {
		ops := opsOf(m.ops, c.kind)
		sc.pair(c.name, passOf(nil, e, ops), passOf(live, e, ops))
	}
	return nil
}

// runObs compares query.* under a live context with no obs binding (the
// disabled path) against the same context carrying a metrics registry;
// spd_traced also binds a fresh trace per query, the /v1/trace shape.
func runObs(sc *scenario, smoke bool) error {
	m := newMicro(sc, smoke)
	e := m.cindex(cindex.Options{})
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg := obs.NewRegistry()
	enabled := obs.WithRegistry(live, reg)
	sc.Params["before"], sc.Params["after"] = "live context, no obs binding", "live context with an obs.Registry bound"
	sc.Gate = "CINDEX answers range/kNN/SPD bit-identically with obs disabled, with a registry, and with a registry and trace"
	var plain exec.Pool
	withReg := exec.Pool{Obs: reg}
	traced := obs.WithTrace(live, obs.NewTrace())
	if err := m.gate(e, []*exec.Pool{&plain, &withReg, &withReg}, []context.Context{live, live, traced}); err != nil {
		return err
	}
	if smoke {
		return nil
	}
	m.warm(e)
	spd := opsOf(m.ops, exec.SPDQ)
	_, _, d := sc.pair("spd", passOf(live, e, spd), passOf(enabled, e, spd))
	sc.boundAtMost("spd ns_op_delta_pct", d, 2)
	var st query.Stats
	sc.pair("spd_traced", passOf(live, e, spd), side{len(spd), func() {
		for i := range spd {
			query.SPD(obs.WithTrace(enabled, obs.NewTrace()), e, spd[i].P, spd[i].Q, &st)
		}
	}})
	for _, c := range classes[1:] {
		ops := opsOf(m.ops, c.kind)
		sc.pair(c.name, passOf(live, e, ops), passOf(enabled, e, ops))
	}
	// The disabled path must allocate exactly what the plain entry points do.
	pl, dis, _ := sc.pair("spd_plain_vs_disabled", passOf(nil, e, spd), passOf(live, e, spd))
	sc.bound("spd disabled allocs_op - plain allocs_op == 0", dis.allocs-pl.allocs, dis.allocs == pl.allocs)
	return nil
}
