package main

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"indoorsq/internal/dataset"
	"indoorsq/internal/exec"
	"indoorsq/internal/indoor"
	"indoorsq/internal/query"
	"indoorsq/internal/snapshot/bundle"
	"indoorsq/internal/workload"
)

// Table 5's grids; the r and s2t grids and every default live on
// dataset.Info.
var (
	floorCounts           = []int{3, 5, 7, 9}                                             // B1
	objectCounts          = []int{500, 1000, 1500, 2000, 2500}                            // B2
	kValues               = []int{1, 5, 10, 50, 100}                                      // B4
	constructionDatasets  = []string{"SYN3", "SYN5", "SYN7", "SYN9", "MZB", "HSM", "CPH"} // A
	queryDatasets         = []string{"SYN5", "MZB", "HSM", "CPH"}                         // B2–B5
	topologyDatasets      = []string{"SYN5-", "SYN5", "SYN5+"}                            // B6
	decompositionDatasets = []string{"SYN50", "SYN5", "MZB0", "MZB", "MZBD"}              // B7
)

// The paper's procedure (Sec. 5.2): 10 instances per setting, |O| = 1000
// and k = 10 unless varied. paperSeed and the per-workload seed offsets
// below fix every instance set, so the deterministic cells (size, memory,
// visited doors) reproduce bit for bit from run to run.
const (
	paperSeed    = 1
	paperQueries = 10
	paperObjects = 1000
	paperK       = 10
)

// paperSetting is one x-axis point of tasks A and B1–B7: a dataset, its
// object count and the query instances of every measured kind. Task A
// settings have no ops; they time construction instead.
type paperSetting struct {
	task, ds, x string
	objects     int
	ops         []exec.Op
}

// name is the report row of one engine at this setting, or the setting
// itself for engine "".
func (s paperSetting) name(engine string) string {
	parts := []string{s.task, s.ds}
	for _, p := range []string{s.x, engine} {
		if p != "" {
			parts = append(parts, p)
		}
	}
	return strings.Join(parts, "/")
}

func (s paperSetting) has(kind exec.Kind) bool { return len(opsOf(s.ops, kind)) > 0 }

func paperPoints(info *dataset.Info) []indoor.Point {
	return workload.New(info.Space, paperSeed).Points(paperQueries)
}

// at is op once per point.
func at(pts []indoor.Point, op exec.Op) []exec.Op {
	ops := make([]exec.Op, len(pts))
	for i, p := range pts {
		op.P = p
		ops[i] = op
	}
	return ops
}

func spdOps(info *dataset.Info, s2t float64) ([]exec.Op, error) {
	prs, err := workload.New(info.Space, paperSeed+int64(s2t*17)).SPDPairs(context.Background(), s2t, paperQueries)
	if err != nil {
		return nil, fmt.Errorf("%s s2t=%g pairs: %w", info.Name, s2t, err)
	}
	ops := make([]exec.Op, len(prs))
	for i, pr := range prs {
		ops[i] = exec.Op{Kind: exec.SPDQ, P: pr.P, Q: pr.Q}
	}
	return ops, nil
}

// defaults is one range and one kNN instance per query point at the
// dataset defaults (B2); triple adds the SPD pairs (B1, B6, B7).
func defaults(info *dataset.Info) []exec.Op {
	pts := paperPoints(info)
	return append(at(pts, exec.Op{Kind: exec.RangeQ, R: info.DefaultR}), at(pts, exec.Op{Kind: exec.KNNQ, K: paperK})...)
}

func triple(task, ds, x string) (paperSetting, error) {
	info := dataset.Get(ds)
	spd, err := spdOps(info, info.DefaultS2T)
	return paperSetting{task, ds, x, paperObjects, append(defaults(info), spd...)}, err
}

// paperPlan lists every setting of tasks A and B1–B7 in the paper's task
// order. smoke keeps only the CPH settings.
func paperPlan(smoke bool) ([]paperSetting, error) {
	keep := func(dss ...string) []string {
		if !smoke {
			return dss
		}
		if slices.Contains(dss, "CPH") {
			return []string{"CPH"}
		}
		return nil
	}
	var plan []paperSetting
	for _, ds := range keep(constructionDatasets...) {
		plan = append(plan, paperSetting{task: "A", ds: ds})
	}
	for _, n := range floorCounts {
		for _, ds := range keep(fmt.Sprintf("SYN%d", n)) {
			s, err := triple("B1", ds, fmt.Sprintf("n=%d", n))
			if err != nil {
				return nil, err
			}
			plan = append(plan, s)
		}
	}
	for _, ds := range keep(queryDatasets...) {
		for _, n := range objectCounts {
			plan = append(plan, paperSetting{"B2", ds, fmt.Sprintf("objects=%d", n), n, defaults(dataset.Get(ds))})
		}
	}
	for _, ds := range keep(queryDatasets...) {
		info := dataset.Get(ds)
		for _, r := range info.RValues {
			plan = append(plan, paperSetting{"B3", ds, fmt.Sprintf("r=%g", r), paperObjects, at(paperPoints(info), exec.Op{Kind: exec.RangeQ, R: r})})
		}
	}
	for _, ds := range keep(queryDatasets...) {
		for _, k := range kValues {
			plan = append(plan, paperSetting{"B4", ds, fmt.Sprintf("k=%d", k), paperObjects, at(paperPoints(dataset.Get(ds)), exec.Op{Kind: exec.KNNQ, K: k})})
		}
	}
	for _, ds := range keep(queryDatasets...) {
		info := dataset.Get(ds)
		for _, v := range info.S2TValues {
			ops, err := spdOps(info, v)
			if err != nil {
				return nil, err
			}
			plan = append(plan, paperSetting{"B5", ds, fmt.Sprintf("s2t=%g", v), paperObjects, ops})
		}
	}
	for _, task := range []struct {
		name string
		dss  []string
	}{{"B6", topologyDatasets}, {"B7", decompositionDatasets}} {
		for _, ds := range keep(task.dss...) {
			s, err := triple(task.name, ds, "")
			if err != nil {
				return nil, err
			}
			plan = append(plan, s)
		}
	}
	return plan, nil
}

// runPaper is the paper's evaluation (Sec. 5.4, Figs. 8–41): task A builds
// each engine on each dataset and records its size and construction time;
// tasks B1–B7 answer each setting's instances on all five engines and
// record per query kind the mean time, the memory (resident index plus
// mean per-query working set) and the mean number of visited doors. The
// engines built by task A serve every later task, as in the paper. Every
// ✓ shape claim of EXPERIMENTS.md is then checked as one bound.
func runPaper(sc *scenario, smoke bool) error {
	sc.Params["seed"], sc.Params["queries"], sc.Params["objects"], sc.Params["k"] = paperSeed, paperQueries, paperObjects, paperK
	sc.Params["build_ms"] = "median of the builds of one dataset's five engines, interleaved; build_samples builds per engine"
	sc.Params["time_us"] = "median per query of passes over the instances, every (engine, kind) of a setting interleaved; <kind>_samples samples each"
	sc.Params["mem_mb"] = "engine SizeBytes plus the mean per-query working set, MB"
	sc.Params["nvd"] = "mean visited doors per query"
	sc.Gate = "at every B1–B7 setting all five engines answer every instance as IDModel does (distances to 1e-6)"
	// build constructs the five engines over info; timed, every engine is
	// one side of one estimate and the last build of each is kept.
	build := func(info *dataset.Info, timed bool) ([]query.Engine, []timing, error) {
		es := make([]query.Engine, len(bundle.EngineNames))
		errs := make([]error, len(es))
		sides := make([]side, len(es))
		for i, name := range bundle.EngineNames {
			sides[i] = side{1, func() {
				es[i], errs[i] = bundle.NewEngine(name, info.Space, bundle.Options{Gamma: info.Gamma})
			}}
		}
		var took []timing
		if timed {
			took = estimate(sides...)
		} else {
			for _, s := range sides {
				s.run()
			}
		}
		return es, took, errors.Join(errs...)
	}

	plan, err := paperPlan(smoke)
	if err != nil {
		return err
	}
	tab := paperTab{plan: plan, rows: map[string]map[string]float64{}}
	engines := map[string][]query.Engine{}
	for _, s := range tab.plan {
		info := dataset.Get(s.ds)
		if s.task == "A" {
			es, took, err := build(info, !smoke)
			if err != nil {
				return err
			}
			engines[s.ds] = es
			for i, e := range es {
				if !smoke {
					tab.row(sc, s.name(e.Name()), map[string]float64{
						"size_mb": float64(e.SizeBytes()) / 1e6, "build_ms": took[i].median() / 1e6,
						"build_samples": float64(len(took[i].ns)),
					})
				}
			}
			continue
		}
		es := engines[s.ds]
		if es == nil {
			var err error
			if es, _, err = build(info, false); err != nil {
				return err
			}
			engines[s.ds] = es
		}
		objs := workload.New(info.Space, paperSeed+int64(s.objects)*7919).Objects(s.objects)
		p := exec.Pool{Workers: 1}
		res := make([][]exec.Result, len(es))
		for i, e := range es {
			e.SetObjects(objs)
			res[i] = answers(context.Background(), &p, e, s.ops)
			for _, r := range res[i] {
				if r.Err != nil {
					return fmt.Errorf("%s: %w", s.name(e.Name()), r.Err)
				}
			}
			if err := sameResults(s.ops, res[0], res[i], 1e-6); err != nil {
				return fmt.Errorf("%s: %w", s.name(e.Name()), err)
			}
		}
		if smoke {
			continue
		}
		// One estimate per setting: each (engine, kind) is a side whose
		// unit is one pass over that kind's instances.
		type cell struct {
			engine int
			kind   exec.Kind
		}
		var cells []cell
		var sides []side
		metrics := make([]map[string]float64, len(es))
		for i, e := range es {
			metrics[i] = map[string]float64{}
			for _, kind := range []exec.Kind{exec.RangeQ, exec.KNNQ, exec.SPDQ} {
				if kops := opsOf(s.ops, kind); len(kops) > 0 {
					cells = append(cells, cell{i, kind})
					sides = append(sides, passOf(context.Background(), e, kops))
				}
			}
		}
		took := estimate(sides...)
		for c, cl := range cells {
			i, kind := cl.engine, cl.kind
			var work, doors int64
			for j, op := range s.ops {
				if op.Kind == kind {
					work += res[i][j].Stats.WorkBytes
					doors += int64(res[i][j].Stats.VisitedDoors)
				}
			}
			f := float64(sides[c].ops)
			m := metrics[i]
			m[kind.String()+"_time_us"] = took[c].median() / 1e3
			m[kind.String()+"_samples"] = float64(len(took[c].ns))
			m[kind.String()+"_mem_mb"] = (float64(work)/f + float64(es[i].SizeBytes())) / 1e6
			m[kind.String()+"_nvd"] = float64(doors) / f
		}
		for i, e := range es {
			tab.row(sc, s.name(e.Name()), metrics[i])
		}
	}
	if smoke {
		return nil
	}
	for _, b := range paperBounds {
		var c claim
		b.check(tab, &c)
		sc.bound(b.name, float64(c.fails), c.fails == 0)
		if c.fails > 0 {
			logf("[paper] %s: first break: %s", b.name, c.first)
		}
	}
	return nil
}
