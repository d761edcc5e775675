package main

import (
	"fmt"
	"sort"
	"time"

	"indoorsq/internal/indoor"
	"indoorsq/internal/moving"
	"indoorsq/internal/spacegen"
	"indoorsq/internal/workload"
)

// moveMonitor is one standing range monitor.
type moveMonitor struct {
	qid int32
	p   indoor.Point
	r   float64
}

func makeMonitors(sp *indoor.Space, seed int64, n int) []moveMonitor {
	gen := workload.New(sp, seed)
	out := make([]moveMonitor, n)
	for i := range out {
		p, _ := gen.PointIn()
		out[i] = moveMonitor{qid: int32(i + 1), p: p, r: 8 + float64(i%5)*2}
	}
	return out
}

func register(reg func(qid int32, p indoor.Point, r float64, t float64) ([]moving.Event, error), ms []moveMonitor) error {
	for _, m := range ms {
		if _, err := reg(m.qid, m.p, m.r, 0); err != nil {
			return fmt.Errorf("register %d: %w", m.qid, err)
		}
	}
	return nil
}

// canon orders events by (T, Query, Object), the order ApplyBatch emits,
// so the baseline's per-update slices compare elementwise.
func canon(evs []moving.Event) []moving.Event {
	out := append([]moving.Event(nil), evs...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.T != b.T {
			return a.T < b.T
		}
		if a.Query != b.Query {
			return a.Query < b.Query
		}
		return a.Object < b.Object
	})
	return out
}

// streamGate feeds the sharded Stream (in batches) and the scan-all
// Monitor (serially) the identical updates plus interleaved removals, and
// requires identical canonical event streams and final memberships.
func streamGate(sp *indoor.Space, monitors []moveMonitor, updates []moving.Update, batch int) error {
	st := moving.NewStream(sp, moving.StreamOptions{Shards: 8})
	defer st.Close()
	mon := moving.NewMonitor(sp)
	if err := register(st.Register, monitors); err != nil {
		return err
	}
	if err := register(mon.Register, monitors); err != nil {
		return err
	}
	var evStream, evBase []moving.Event
	for off := 0; off < len(updates); off += batch {
		chunk := updates[off:min(off+batch, len(updates))]
		evs, err := st.ApplyBatch(chunk)
		if err != nil {
			return fmt.Errorf("gate: stream batch: %w", err)
		}
		evStream = append(evStream, evs...)
		for _, u := range chunk {
			evs, err := mon.Apply(u)
			if err != nil {
				return fmt.Errorf("gate: baseline apply: %w", err)
			}
			evBase = append(evBase, evs...)
		}
		if (off/batch)%3 == 2 {
			id, t := chunk[0].ID, chunk[len(chunk)-1].T+0.5
			evStream = append(evStream, st.Remove(id, t)...)
			evBase = append(evBase, mon.Remove(id, t)...)
		}
	}
	cs, cb := canon(evStream), canon(evBase)
	if len(cs) != len(cb) {
		return fmt.Errorf("gate: %d stream events vs %d baseline events", len(cs), len(cb))
	}
	for i := range cs {
		if cs[i] != cb[i] {
			return fmt.Errorf("gate: event %d diverges: stream %+v, baseline %+v", i, cs[i], cb[i])
		}
	}
	for _, m := range monitors {
		a, b := st.Result(m.qid), mon.Result(m.qid)
		if len(a) != len(b) {
			return fmt.Errorf("gate: query %d membership %d vs %d", m.qid, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				return fmt.Errorf("gate: query %d membership diverges at %d: %d vs %d", m.qid, i, a[i], b[i])
			}
		}
	}
	return nil
}

// moveConfig is one (objects, monitors) point of the move scenario.
type moveConfig struct {
	name                  string // row name prefix ("" for the grid rows)
	sp                    *indoor.Space
	seed                  int64
	objects, monitors     int
	timed, baseCap, batch int
	gate                  int     // updates in the equality gate
	hop                   float64 // MotionStream hop fraction
}

// runMove compares moving.Stream (a partition->query inverted index over
// each monitor's cached door-distance field routes an update to the
// monitors it could change; batches fan out over object shards) with
// moving.Monitor, which re-evaluates every monitor on every update. The
// baseline is time-capped: it applies a prefix of the updates and its
// updates/sec is extrapolated, fair because its per-update cost depends on
// the monitor count, not on how many updates came before.
//
// The grid rows run batches of 1024 on a 1,500-door venue. The ingest row
// has the shape of perfbench's ingest workload: its ~900-door venue, 2,000
// monitors, 20,000 objects and batches of 64.
func runMove(sc *scenario, smoke bool) error {
	grid := spacegen.Params{
		Floors: 3, Rows: 20, Cols: 25, Hall: spacegen.HallStraight,
		ExtraDoors: 40, Imbalance: 0.2,
	}.Normalize()
	ingest := spacegen.Params{Floors: 3, Rows: 12, Cols: 25, ExtraDoors: 10, Imbalance: 0.2}.Normalize()
	gridSeed, ingestSeed := int64(90), int64(1301)
	if smoke {
		grid, gridSeed = spacegen.Params{Floors: 1, Rows: 3, Cols: 4, ExtraDoors: 2}.Normalize(), 91
		ingest = spacegen.Params{Floors: 2, Rows: 3, Cols: 4, ExtraDoors: 2}.Normalize()
	}
	venue := func(key string, seed int64, params spacegen.Params) (*indoor.Space, error) {
		sp, err := spacegen.Generate(seed, params)
		if err != nil {
			return nil, err
		}
		sc.Params[key] = fmt.Sprintf("spacegen %d floors, %dx%d rooms: %d partitions, %d doors",
			params.Floors, params.Rows, params.Cols, sp.NumPartitions(), sp.NumDoors())
		return sp, nil
	}
	gridSp, err := venue("venue", gridSeed, grid)
	if err != nil {
		return err
	}
	ingestSp, err := venue("ingest_venue", ingestSeed, ingest)
	if err != nil {
		return err
	}
	configs := []moveConfig{
		{"", gridSp, 92, 100_000, 1_000, 200_000, 4000, 1024, 500, 0.3},
		{"", gridSp, 93, 100_000, 10_000, 200_000, 2000, 1024, 300, 0.3},
		{"", gridSp, 94, 1_000_000, 10_000, 200_000, 2000, 1024, 300, 0.3},
		{"ingest/", ingestSp, 95, 20_000, 2_000, 192_000, 2000, 64, 640, 0.2},
	}
	if smoke {
		configs = []moveConfig{
			{"", gridSp, 92, 200, 40, 1500, 0, 256, 1500, 0.3},
			{"ingest/", ingestSp, 95, 400, 40, 1500, 0, 64, 1500, 0.2},
		}
	}
	sc.Params["before"], sc.Params["after"] = "moving.Monitor (scan-all)", "moving.Stream (sharded, inverted index)"
	sc.Gate = "Stream and Monitor emit identical canonical event streams and final memberships over an update+removal prefix"
	for _, c := range configs {
		if err := moveRun(sc, c, smoke); err != nil {
			return fmt.Errorf("%s%d objects x %d monitors: %w", c.name, c.objects, c.monitors, err)
		}
	}
	return nil
}

func moveRun(sc *scenario, c moveConfig, smoke bool) error {
	sp := c.sp
	monitors := makeMonitors(sp, c.seed*7, c.monitors)
	walk := spacegen.MotionStream(sp, c.seed, c.objects, c.timed, 1, 1e-6, c.hop)
	motions := make([]moving.Update, len(walk))
	for i, m := range walk {
		motions[i] = moving.Update{ID: m.ID, Loc: m.Loc, Part: m.Part, T: m.T}
	}
	if err := streamGate(sp, monitors, motions[:c.gate], c.batch); err != nil {
		return err
	}
	if smoke {
		return nil
	}

	// Indexed side: register, seed the whole population at the motion
	// stream's own initial placement (same seed), then the timed run.
	st := moving.NewStream(sp, moving.StreamOptions{})
	defer st.Close()
	t0 := time.Now()
	if err := register(st.Register, monitors); err != nil {
		return err
	}
	registerMs := ms(time.Since(t0))
	seedObjs := spacegen.Objects(sp, c.seed, c.objects)
	seedUpd := make([]moving.Update, len(seedObjs))
	for i, o := range seedObjs {
		seedUpd[i] = moving.Update{ID: o.ID, Loc: o.Loc, Part: o.Part, T: float64(i+1) * 1e-6}
	}
	t0 = time.Now()
	for off := 0; off < len(seedUpd); off += 4096 {
		if _, err := st.ApplyBatch(seedUpd[off:min(off+4096, len(seedUpd))]); err != nil {
			return fmt.Errorf("seed: %w", err)
		}
	}
	seedMs := ms(time.Since(t0))

	touchSum0, touchN0 := moving.Metrics.Touched.Sum(), moving.Metrics.Touched.Count()
	var events int
	lat := make([]float64, 0, len(motions)/c.batch+1)
	t0 = time.Now()
	for off := 0; off < len(motions); off += c.batch {
		b0 := time.Now()
		evs, err := st.ApplyBatch(motions[off:min(off+c.batch, len(motions))])
		if err != nil {
			return fmt.Errorf("timed batch: %w", err)
		}
		lat = append(lat, ms(time.Since(b0)))
		events += len(evs)
	}
	indexedUPS := float64(len(motions)) / time.Since(t0).Seconds()
	sort.Float64s(lat)
	p95 := lat[(len(lat)*95)/100]
	meanTouched := 0.0
	if dn := moving.Metrics.Touched.Count() - touchN0; dn > 0 {
		meanTouched = float64(moving.Metrics.Touched.Sum()-touchSum0) / float64(dn)
	}
	st.Close()

	// Scan-all baseline, seeded only with the objects its capped prefix
	// touches: per-update cost scans the monitor list either way.
	mon := moving.NewMonitor(sp)
	if err := register(mon.Register, monitors); err != nil {
		return err
	}
	prefix := motions[:min(c.baseCap, len(motions))]
	seen := map[int32]bool{}
	for _, u := range prefix {
		if !seen[u.ID] {
			seen[u.ID] = true
			if _, err := mon.Apply(moving.Update{ID: u.ID, Loc: u.Loc, Part: u.Part, T: u.T - 0.5}); err != nil {
				return fmt.Errorf("baseline seed: %w", err)
			}
		}
	}
	t0 = time.Now()
	for _, u := range prefix {
		if _, err := mon.Apply(u); err != nil {
			return fmt.Errorf("baseline apply: %w", err)
		}
	}
	scanUPS := float64(len(prefix)) / time.Since(t0).Seconds()

	name := fmt.Sprintf("%sobjects=%d/monitors=%d", c.name, c.objects, c.monitors)
	sc.row(name, map[string]float64{
		"objects": float64(c.objects), "monitors": float64(c.monitors), "batch_size": float64(c.batch),
		"gate_updates": float64(c.gate), "timed_updates_indexed": float64(len(motions)), "timed_updates_scan_all": float64(len(prefix)),
		"before_updates_per_sec": scanUPS, "after_updates_per_sec": indexedUPS, "speedup": indexedUPS / scanUPS,
		"indexed_p95_batch_ms": p95, "indexed_p95_per_update_us": p95 * 1e3 / float64(c.batch),
		"mean_monitors_touched_per_update": meanTouched, "events_emitted_indexed": float64(events),
		"indexed_register_ms": registerMs, "indexed_seed_ms": seedMs,
	})
	if c.monitors >= 10_000 {
		sp := indexedUPS / scanUPS
		sc.bound(name+" speedup >= 10", sp, sp >= 10)
	}
	return nil
}
