package main

import (
	"fmt"

	"indoorsq/internal/obs"
	"indoorsq/internal/snapshot/bundle"
	"indoorsq/internal/spacegen"
)

// venueDef is one generated venue of a workload. Venues and their object
// sets are fixed datasets, like the paper's: the --seed argument varies
// the traffic, not the buildings.
type venueDef struct {
	id      string
	genSeed int64
	params  spacegen.Params
	engines []string
	objects int
}

// opShare is one query class of a mix with its share of requests.
type opShare struct {
	op    string
	share float64
}

// workloadDef describes one workload. Query workloads (serve_mix,
// wide_range) fill the query fields; ingest fills the stream fields.
type workloadDef struct {
	name   string
	venues []venueDef

	// Query traffic.
	mix      []opShare
	rangeR   float64
	knnK     int
	zipfS    float64           // > 1: venues drawn by Zipf(s); 0: uniform
	hotspots int               // hotspot points per venue (0: all uniform)
	hotFrac  float64           // share of query points drawn from hotspots
	pins     map[string]string // op -> engine pinned over HTTP at setup

	// Stream traffic.
	monitors  int     // standing range monitors registered at setup
	monitorR  float64 // base monitor radius (radii spread over +0..8 m)
	movers    int     // moving objects, seeded by one update pass at setup
	batch     int     // position reports per POST .../updates
	readEvery int     // one request in readEvery is a monitor result read
	hopFrac   float64 // share of motion steps that cross a door
}

func (w *workloadDef) ingest() bool { return w.monitors > 0 }

var workloadNames = []string{"serve_mix", "wide_range", "ingest"}

// lookupWorkload returns the named workload at full or tiny scale. Tiny
// venues keep every code path of the full workload and exist for the
// package's self-test.
func lookupWorkload(name string, tiny bool) (*workloadDef, error) {
	switch name {
	case "serve_mix":
		return serveMix(tiny), nil
	case "wide_range":
		return wideRange(tiny), nil
	case "ingest":
		return ingest(tiny), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// serveMix: six venues of about 30 to 1,000 doors with all five engines,
// a Zipf venue choice and a hotspot-heavy point distribution. Engine work
// per request is small, so the serving surface dominates client time.
func serveMix(tiny bool) *workloadDef {
	type shape struct {
		id                string
		floors, rows, col int
	}
	// Listed in Zipf rank order: the first venue draws the most traffic.
	shapes := []shape{
		{"mall", 2, 5, 12},     // ~140 doors
		{"airport", 3, 12, 25}, // ~930 doors
		{"museum", 2, 8, 16},   // ~280 doors
		{"boutique", 1, 3, 8},  // ~30 doors
		{"campus", 3, 10, 16},  // ~510 doors
		{"station", 1, 4, 10},  // ~45 doors
	}
	objects := 1000
	if tiny {
		objects = 60
	}
	w := &workloadDef{
		name:     "serve_mix",
		mix:      []opShare{{obs.OpRange, 0.5}, {obs.OpKNN, 0.3}, {obs.OpSPD, 0.2}},
		rangeR:   15,
		knnK:     10,
		zipfS:    1.1,
		hotspots: 64,
		hotFrac:  0.8,
	}
	for i, s := range shapes {
		p := spacegen.Params{Floors: s.floors, Rows: s.rows, Cols: s.col, ExtraDoors: 8, Imbalance: 0.2}
		if tiny {
			p = spacegen.Params{Floors: 1 + i%2, Rows: 2, Cols: 3, ExtraDoors: 2}
		}
		w.venues = append(w.venues, venueDef{
			id: s.id, genSeed: int64(1101 + i), params: p.Normalize(),
			engines: bundle.EngineNames, objects: objects,
		})
	}
	return w
}

// wideRange: one venue of about 3,000 doors, wide range queries and large
// kNN, with range pinned to IPTree and kNN to IDModel so both engine
// families stay on the path and the engine dominates client time. IDIndex
// is left out: its door-to-door matrices grow as O(D^2).
func wideRange(tiny bool) *workloadDef {
	p := spacegen.Params{Floors: 3, Rows: 20, Cols: 50, ExtraDoors: 10, Imbalance: 0.2}
	objects, r := 1000, 400.0
	if tiny {
		p = spacegen.Params{Floors: 2, Rows: 3, Cols: 5, ExtraDoors: 3}
		objects, r = 80, 60
	}
	return &workloadDef{
		name: "wide_range",
		venues: []venueDef{{
			id: "tower", genSeed: 1201, params: p.Normalize(),
			engines: []string{"IDModel", "CIndex", "IPTree", "VIPTree"}, objects: objects,
		}},
		mix:    []opShare{{obs.OpRange, 0.6}, {obs.OpKNN, 0.4}},
		rangeR: r,
		knnK:   50,
		pins:   map[string]string{obs.OpRange: "IPTree", obs.OpKNN: "IDModel"},
	}
}

// ingest: one venue of about 900 doors with 2,000 standing range monitors
// and 20,000 moving objects reporting in batches of 64, one request in 8
// reading a monitor's result beside the writes.
func ingest(tiny bool) *workloadDef {
	p := spacegen.Params{Floors: 3, Rows: 12, Cols: 25, ExtraDoors: 10, Imbalance: 0.2}
	monitors, movers := 2000, 20000
	if tiny {
		p = spacegen.Params{Floors: 2, Rows: 3, Cols: 4, ExtraDoors: 2}
		monitors, movers = 40, 400
	}
	return &workloadDef{
		name: "ingest",
		venues: []venueDef{{
			id: "depot", genSeed: 1301, params: p.Normalize(),
			engines: []string{"IDModel"},
		}},
		monitors:  monitors,
		monitorR:  8,
		movers:    movers,
		batch:     64,
		readEvery: 8,
		hopFrac:   0.2,
	}
}
