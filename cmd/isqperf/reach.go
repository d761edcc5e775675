package main

import (
	"context"
	"fmt"
	"maps"
	"math"
	"time"

	"indoorsq/internal/cindex"
	"indoorsq/internal/exec"
	"indoorsq/internal/idmodel"
	"indoorsq/internal/indoor"
	"indoorsq/internal/query"
	"indoorsq/internal/reach"
	"indoorsq/internal/spacegen"
	"indoorsq/internal/temporal"
)

// runReach compares engines carrying their internal/reach summaries with
// SetReach(nil) twins on single-floor venues at one-way door fractions 0,
// 0.25 and 0.5, under two door regimes:
//
//   - open: every door open. A generated venue's spanning tree is
//     bidirectional, so the door graph is one SCC and every pruning gate is
//     off; these rows measure the cost of carrying the summaries.
//   - night: a temporal schedule closes every bidirectional door crossing a
//     vertical cut at 60% of the venue width, leaving one-way crossings
//     open, so the east wing becomes one-way-reachable or severed and the
//     gates go live.
//
// The query list weights SPD sources inside the wing (the sweeps the
// reachability gate short-circuits), plus range and kNN probes on both
// sides of the cut.
func runReach(sc *scenario, smoke bool) error {
	rows, cols, objects, nS, nRK := 24, 48, 400, 16, 6
	if smoke {
		rows, cols, objects, nS, nRK = 6, 12, 60, 4, 2
	}
	sc.Params["venue"] = fmt.Sprintf("spacegen 1 floor, %dx%d rooms, %d objects", rows, cols, objects)
	sc.Params["before"], sc.Params["after"] = "SetReach(nil) twin (WithOpen view at night)", "engine with its reach summaries"
	sc.Params["ns_op"] = "one op of the mix, timed in passes over the whole mix"
	sc.Gate = "pruned IDModel and CIndex answer range/kNN/SPD bit-identically to their unpruned twins"
	for _, oneWay := range []float64{0, 0.25, 0.5} {
		params := spacegen.Params{
			Floors: 1, Rows: rows, Cols: cols, Hall: spacegen.HallStraight,
			ExtraDoors: 10, OneWayFrac: oneWay, Imbalance: 0.3,
		}.Normalize()
		sp, err := spacegen.Generate(int64(7000+oneWay*100), params)
		if err != nil {
			return err
		}
		objs := spacegen.Objects(sp, 7001, objects)

		// Room centers west of the cut are main, east of it wing.
		maxX := math.Inf(-1)
		for i := 0; i < sp.NumPartitions(); i++ {
			maxX = math.Max(maxX, sp.Partition(indoor.PartitionID(i)).MBR.MaxX)
		}
		cut := 0.6 * maxX
		var main, wing []indoor.Point
		for i := 0; i < sp.NumPartitions(); i++ {
			part := sp.Partition(indoor.PartitionID(i))
			if part.Kind != indoor.Room {
				continue
			}
			c := part.MBR.Center()
			if c.X < cut {
				main = append(main, indoor.At(c.X, c.Y, part.Floor))
			} else {
				wing = append(wing, indoor.At(c.X, c.Y, part.Floor))
			}
		}
		ops := reachMix(main, wing, nS, nRK)

		for _, regime := range []string{"open", "night"} {
			mP, mU := idmodel.New(sp), idmodel.New(sp)
			cP, cU := cindex.New(sp), cindex.New(sp)
			mU.SetReach(nil)
			cU.SetReach(nil)
			for _, e := range []query.Engine{mP, mU, cP, cU} {
				e.SetObjects(objs)
			}
			engines := [2][2]query.Engine{{mP, mU}, {cP, cU}} // [engine][pruned, unpruned]
			r := mP.Reach()
			var sch *temporal.Schedule
			var open func(indoor.DoorID) bool
			const night = 23.0
			if regime == "night" {
				if sch = wingSchedule(sp, cut); sch.Len() == 0 {
					return fmt.Errorf("oneway=%.2f: wing schedule closed no doors", oneWay)
				}
				open = sch.At(night)
			}
			start := time.Now()
			reach.FromSpace(sp, open)
			buildMs := ms(time.Since(start))
			if regime == "night" {
				eM := temporal.NewIDModel(mP, sch, night)
				uM, uC := mU.WithOpen(open), cU.WithOpen(open)
				uM.SetObjects(objs)
				uC.SetObjects(objs)
				engines = [2][2]query.Engine{{eM, uM}, {temporal.NewCIndex(cP, sch, night), uC}}
				r = eM.Reach()
			}

			for i, name := range []string{"IDModel", "CIndex"} {
				label := fmt.Sprintf("oneway=%.2f/%s/%s", oneWay, regime, name)
				var p exec.Pool
				pruned := answers(context.Background(), &p, engines[i][0], ops)
				unpruned := answers(context.Background(), &p, engines[i][1], ops)
				if err := sameResults(ops, unpruned, pruned, 0); err != nil {
					return fmt.Errorf("%s: %w", label, err)
				}
				if smoke {
					continue
				}
				var vp, vu float64
				for j := range ops {
					vp += float64(pruned[j].Stats.VisitedDoors)
					vu += float64(unpruned[j].Stats.VisitedDoors)
				}
				t := estimate(passOf(nil, engines[i][1], ops), passOf(nil, engines[i][0], ops))
				d := pairedDelta(t[0].ns, t[1].ns)
				metrics := pairMetrics(t[0], t[1], d)
				maps.Copy(metrics, map[string]float64{
					"doors": float64(sp.NumDoors()), "partitions": float64(sp.NumPartitions()), "ops": float64(len(ops)),
					"before_visited_doors": vu, "after_visited_doors": vp, "visited_doors_delta_pct": deltaPct(vu, vp),
					"sccs": float64(r.NumSCCs()), "summary_bytes": float64(r.SizeBytes()), "reach_build_ms": buildMs,
				})
				sc.row(label, metrics)
				if oneWay == 0 && regime == "open" {
					sc.boundAtMost(label+" ns_op_delta_pct", d, 2)
				}
			}
		}
	}
	return nil
}

// reachMix is the query list of one venue: SPD pairs weighted toward
// wing-side sources, plus range and kNN probes on both sides.
func reachMix(main, wing []indoor.Point, nS, nRK int) []exec.Op {
	pick := func(pts []indoor.Point, i int) indoor.Point { return pts[i%len(pts)] }
	var ops []exec.Op
	for i := 0; i < nS; i++ {
		ops = append(ops, exec.Op{Kind: exec.SPDQ, P: pick(wing, i), Q: pick(main, i+3)})
	}
	for i := 0; i < nS/2; i++ {
		ops = append(ops,
			exec.Op{Kind: exec.SPDQ, P: pick(main, i), Q: pick(wing, i+5)},
			exec.Op{Kind: exec.SPDQ, P: pick(main, i), Q: pick(main, i+7)})
	}
	for i := 0; i < nRK; i++ {
		ops = append(ops,
			exec.Op{Kind: exec.RangeQ, P: pick(main, i), R: 30},
			exec.Op{Kind: exec.RangeQ, P: pick(wing, i), R: 30},
			exec.Op{Kind: exec.KNNQ, P: pick(main, i+1), K: 8},
			exec.Op{Kind: exec.KNNQ, P: pick(wing, i+1), K: 8})
	}
	return ops
}

// wingSchedule closes every bidirectional door crossing the vertical line
// x = cut during night hours, leaving one-way crossings open.
func wingSchedule(sp *indoor.Space, cut float64) *temporal.Schedule {
	sch := temporal.NewSchedule()
	for di := 0; di < sp.NumDoors(); di++ {
		d := sp.Door(indoor.DoorID(di))
		if len(d.Parts) != 2 || len(d.Enterable) < 2 {
			continue
		}
		a := sp.Partition(d.Parts[0]).MBR.Center()
		b := sp.Partition(d.Parts[1]).MBR.Center()
		if (a.X < cut) != (b.X < cut) {
			sch.Set(indoor.DoorID(di), temporal.Interval{Open: 8, Close: 20})
		}
	}
	return sch
}
