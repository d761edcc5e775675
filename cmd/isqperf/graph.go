package main

import (
	"fmt"
	"math"

	"indoorsq/internal/cindex"
	"indoorsq/internal/doorgraph"
	"indoorsq/internal/indoor"
	"indoorsq/internal/oracle"
	"indoorsq/internal/query"
	"indoorsq/internal/spacegen"
	"indoorsq/internal/workload"
)

type graphScale struct {
	name       string
	rows, cols int
	oracle     bool
}

// graphScales are single-floor spacegen venues of roughly 10^3, 10^4 and
// 10^5 doors; the oracle gate runs where its O(D^2)-per-source cost stays
// small, and internal/doorgraph's legacy suite covers the larger graphs.
var graphScales = []graphScale{
	{"1k", 31, 31, true},
	{"10k", 100, 99, false},
	{"100k", 316, 316, false},
}

// runGraph measures the live CSR door graph: construction, full and
// single-target Dijkstra sweeps, and CINDEX SPDQ on the same venues.
func runGraph(sc *scenario, smoke bool) error {
	sc.Gate = "CSR sweeps match oracle.FromDoor on 16 sampled sources: forward bit-identical, reverse within 1e-6 (1k tier and smoke)"
	scales := graphScales
	if smoke {
		scales = []graphScale{{"smoke", 6, 6, true}}
	}
	for _, s := range scales {
		if err := runGraphScale(sc, s, smoke); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return nil
}

func runGraphScale(sc *scenario, gs graphScale, smoke bool) error {
	name, rows, cols := gs.name, gs.rows, gs.cols
	params := spacegen.Params{
		Floors: 1, Rows: rows, Cols: cols, Hall: spacegen.HallStraight,
		ExtraDoors: 4, OneWayFrac: 0.1, Imbalance: 0.3,
	}.Normalize()
	sp, err := spacegen.Generate(int64(rows), params)
	if err != nil {
		return err
	}
	// The first build fills the intra-partition distance cache, so the
	// timed builds below measure graph derivation alone.
	g := doorgraph.Build(sp)
	n := g.N
	if gs.oracle {
		if err := oracleGate(sp, g); err != nil {
			return err
		}
	}
	if smoke {
		return nil
	}
	sc.row(name+"/venue", map[string]float64{
		"rows": float64(rows), "cols": float64(cols), "partitions": float64(sp.NumPartitions()),
		"doors": float64(n), "edges": float64(g.NumEdges()), "graph_bytes": float64(g.SizeBytes()),
	})
	build := estimate(side{1, func() { g = doorgraph.Build(sp) }})[0]
	sc.row(name+"/doorgraph_build", map[string]float64{"ms": build.median() / 1e6, "samples": float64(len(build.ns))})

	srcs := make([]int32, 64)
	for i := range srcs {
		srcs[i] = int32((uint64(i) * 2654435761) % uint64(n))
	}
	s := g.AcquireScratch()
	defer g.ReleaseScratch(s)
	tgt := make([]int32, 1)
	eng := cindex.New(sp)
	pts := workload.New(sp, 1).Points(32)
	var st query.Stats
	// Each side cycles through its sources or points, one per call.
	var si, ti, pi int
	m := estimate(side{1, func() {
		s.Run(g, srcs[si%len(srcs)], si%2 == 1)
		si++
	}}, side{1, func() {
		tgt[0] = srcs[(ti+17)%len(srcs)]
		s.RunTargets(g, srcs[ti%len(srcs)], false, tgt)
		ti++
	}}, side{1, func() {
		eng.SPD(pts[pi%len(pts)], pts[(pi+1)%len(pts)], &st)
		pi++
	}})
	for i, r := range []string{"sweep_single_source", "sweep_single_target", "cindex_spdq"} {
		sc.row(name+"/"+r, map[string]float64{
			"ns_op": m[i].median(), "bytes_op": m[i].bytes, "allocs_op": m[i].allocs, "samples": float64(len(m[i].ns)),
		})
	}
	sc.bound(name+" sweep allocs_op == 0", m[0].allocs+m[1].allocs, m[0].allocs == 0 && m[1].allocs == 0)
	return nil
}

// oracleGate checks the CSR sweeps against the oracle's exhaustive
// Dijkstra from 16 sampled doors. Forward distances sum each path in the
// same order as the oracle, so they must match bit for bit; a reverse
// sweep sums the same path from the other end and may differ by rounding.
func oracleGate(sp *indoor.Space, g *doorgraph.Graph) error {
	ref := oracle.New(sp)
	var srcs []int
	from := map[int][]float64{}
	for src := 0; src < g.N; src += g.N/16 + 1 {
		srcs = append(srcs, src)
		from[src] = ref.FromDoor(indoor.DoorID(src))
	}
	s := g.AcquireScratch()
	defer g.ReleaseScratch(s)
	for _, src := range srcs {
		s.Run(g, int32(src), false)
		for d := 0; d < g.N; d++ {
			if math.Float64bits(s.DistAt(d)) != math.Float64bits(from[src][d]) {
				return fmt.Errorf("gate: forward sweep from door %d: dist to %d %.17g, oracle %.17g", src, d, s.DistAt(d), from[src][d])
			}
		}
		s.Run(g, int32(src), true)
		for _, d := range srcs {
			if !near(s.DistAt(d), from[d][src], 1e-6) {
				return fmt.Errorf("gate: reverse sweep to door %d: dist from %d %.17g, oracle %.17g", src, d, s.DistAt(d), from[d][src])
			}
		}
	}
	return nil
}
