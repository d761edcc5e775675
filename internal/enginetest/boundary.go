package enginetest

import (
	"indoorsq/internal/geom"
	"indoorsq/internal/indoor"
)

// BoundaryPoints returns the points of sp where two host lookups can
// disagree: every partition's vertices and wall midpoints on each floor it
// spans (so both landings of every staircase), every door point, and each of
// those moved ±Eps and ±2Eps along x and along y. Only indoor points are
// kept (HostPartition finds a host), without duplicates, in a deterministic
// order. spacegen.Point and workload points sample interiors, so without
// this corpus a disagreement on shared walls goes unseen.
func BoundaryPoints(sp *indoor.Space) []indoor.Point {
	var base []indoor.Point
	for i := range sp.Partitions() {
		v := sp.Partition(indoor.PartitionID(i))
		for f := v.Floor; f <= v.TopFloor; f++ {
			for j, a := range v.Poly {
				b := v.Poly[(j+1)%len(v.Poly)]
				base = append(base, indoor.At(a.X, a.Y, f), indoor.At((a.X+b.X)/2, (a.Y+b.Y)/2, f))
			}
		}
	}
	for _, d := range sp.Doors() {
		base = append(base, indoor.At(d.P.X, d.P.Y, d.Floor))
	}
	seen := make(map[indoor.Point]bool, len(base)*9)
	var out []indoor.Point
	add := func(p indoor.Point) {
		if seen[p] {
			return
		}
		seen[p] = true
		if _, ok := sp.HostPartition(p); ok {
			out = append(out, p)
		}
	}
	offsets := []float64{-2 * geom.Eps, -geom.Eps, geom.Eps, 2 * geom.Eps}
	for _, p := range base {
		add(p)
		for _, o := range offsets {
			add(indoor.At(p.X+o, p.Y, p.Floor))
			add(indoor.At(p.X, p.Y+o, p.Floor))
		}
	}
	return out
}
