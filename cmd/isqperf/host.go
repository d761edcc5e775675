package main

import (
	"fmt"
	"strings"

	"indoorsq/internal/cindex"
	"indoorsq/internal/enginetest"
	"indoorsq/internal/indoor"
	"indoorsq/internal/spacegen"
	"indoorsq/internal/workload"
)

// hostVenue is one generated venue of the host scenario.
type hostVenue struct {
	id     string
	seed   int64
	params spacegen.Params
}

// hostVenues are perfbench's venues, same generator seeds and parameters:
// the ingest venue, where every position report without a partition pays a
// host lookup, and the six serve_mix venues, where every query does.
func hostVenues(smoke bool) []hostVenue {
	if smoke {
		return []hostVenue{
			{"depot", 1301, spacegen.Params{Floors: 2, Rows: 3, Cols: 4, ExtraDoors: 2}},
			{"mall", 1101, spacegen.Params{Floors: 1, Rows: 2, Cols: 3, ExtraDoors: 2}},
		}
	}
	mix := func(floors, rows, cols int) spacegen.Params {
		return spacegen.Params{Floors: floors, Rows: rows, Cols: cols, ExtraDoors: 8, Imbalance: 0.2}
	}
	return []hostVenue{
		{"depot", 1301, spacegen.Params{Floors: 3, Rows: 12, Cols: 25, ExtraDoors: 10, Imbalance: 0.2}},
		{"mall", 1101, mix(2, 5, 12)},
		{"airport", 1102, mix(3, 12, 25)},
		{"museum", 1103, mix(2, 8, 16)},
		{"boutique", 1104, mix(1, 3, 8)},
		{"campus", 1105, mix(3, 10, 16)},
		{"station", 1106, mix(1, 4, 10)},
	}
}

// runHost times the two host lookups of the code base on each venue: the
// space's scan of packed per-floor MBRs (Space.HostPartition, used by every
// engine but CINDEX, the monitors and /updates) against CINDEX's R-tree
// filter (Index.Host). The points are a seeded workload sample plus the
// venue's boundary corpus, where the two could disagree on shared walls.
// The rows re-check the choice of the scan over an R-tree as venues grow.
func runHost(sc *scenario, smoke bool) error {
	sample := 4096
	if smoke {
		sample = 64
	}
	sc.Params["before"], sc.Params["after"] = "Space.HostPartition (packed per-floor MBR scan)", "cindex.Index.Host (R-tree filter, then HostAmong)"
	sc.Params["points"] = fmt.Sprintf("%d seeded workload points plus enginetest.BoundaryPoints per venue, one lookup per op", sample)
	sc.Gate = "HostPartition and CINDEX Index.Host return the same partition, or both none, at every point"
	var venues []string
	for _, v := range hostVenues(smoke) {
		sp, err := spacegen.Generate(v.seed, v.params.Normalize())
		if err != nil {
			return err
		}
		pts := append(workload.New(sp, v.seed).Points(sample), enginetest.BoundaryPoints(sp)...)
		ix := cindex.New(sp)
		for _, p := range pts {
			a, aok := sp.HostPartition(p)
			b, bok := ix.Host(p)
			if aok != bok || (aok && a != b) {
				return fmt.Errorf("gate: %s point %v: HostPartition (%d, %v), Index.Host (%d, %v)", v.id, p, a, aok, b, bok)
			}
		}
		venues = append(venues, fmt.Sprintf("%s partitions=%d points=%d", v.id, sp.NumPartitions(), len(pts)))
		if smoke {
			continue
		}
		lookups := func(host func(indoor.Point) (indoor.PartitionID, bool)) side {
			return side{len(pts), func() {
				for _, p := range pts {
					host(p)
				}
			}}
		}
		sc.pair("host/"+v.id, lookups(sp.HostPartition), lookups(ix.Host))
	}
	sc.Params["venues"] = strings.Join(venues, "; ")
	return nil
}
