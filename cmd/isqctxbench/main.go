// Command isqctxbench measures the steady-state cost of context tracking on
// the hot query paths and writes the comparison to a JSON report
// (BENCH_PR3.json).
//
// "Untracked" runs the plain query entry points (SPD/Range/KNN), where
// query.Track is a no-op and the amortized probe in Stats.Door is a single
// nil check. "Tracked" runs the same queries through query.SPD/Range/KNN
// under a live cancellable context (never cancelled), so every
// query.CheckInterval door expansions pay a ctx.Err poll. A third SPD
// variant additionally arms a generous work budget. The acceptance
// criterion is that tracking costs within noise of the untracked path —
// the uncancelled SPDQ ns/op must not regress by more than ~2%.
//
// Usage:
//
//	isqctxbench [-o BENCH_PR3.json] [-pr2 BENCH_PR2.json] [-rows 6] [-cols 6] [-floors 2]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"indoorsq/internal/cindex"
	"indoorsq/internal/query"
	"indoorsq/internal/testspaces"
	"indoorsq/internal/workload"
)

// mb is one benchmark observation.
type mb struct {
	NsOp     float64 `json:"ns_op"`
	BytesOp  int64   `json:"bytes_op"`
	AllocsOp int64   `json:"allocs_op"`
}

// run executes one benchmark function under the testing harness.
func run(f func(b *testing.B)) mb {
	r := testing.Benchmark(f)
	return mb{
		NsOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesOp:  r.AllocedBytesPerOp(),
		AllocsOp: r.AllocsPerOp(),
	}
}

// overheadPct returns how much slower tracked is than untracked, in percent
// (negative means tracked measured faster, i.e. pure noise).
func overheadPct(untracked, tracked mb) float64 {
	if untracked.NsOp == 0 {
		return 0
	}
	return 100 * (tracked.NsOp - untracked.NsOp) / untracked.NsOp
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.Index(line, ":"); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return runtime.GOARCH
}

// pr2SPDNsOp digs the cached CINDEX SPD ns/op out of a BENCH_PR2.json
// report, if present, so the PR3 report can carry the cross-PR reference.
func pr2SPDNsOp(path string) (float64, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, false
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, false
	}
	cur := doc
	for _, k := range []string{"benchmarks", "cindex_query_sweep", "spd", "after"} {
		next, ok := cur[k].(map[string]any)
		if !ok {
			return 0, false
		}
		cur = next
	}
	ns, ok := cur["ns_op"].(float64)
	return ns, ok
}

func main() {
	var (
		out    = flag.String("o", "BENCH_PR3.json", "output JSON path")
		pr2    = flag.String("pr2", "BENCH_PR2.json", "PR2 report to cite for the cross-PR SPD reference")
		rows   = flag.Int("rows", 6, "grid rows per floor")
		cols   = flag.Int("cols", 6, "grid cols per floor")
		floors = flag.Int("floors", 2, "floors")
	)
	flag.Parse()

	sp := testspaces.RandomGridConcave(5, *rows, *cols, *floors, 6)
	gen := workload.New(sp, 1)
	objs := gen.Objects(500)
	pts := gen.Points(64)

	eng := cindex.New(sp)
	eng.SetObjects(objs)

	// A live, never-cancelled context with a cancellable Done channel: the
	// tracked side arms and pays the amortized ctx.Err probes.
	liveCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	budgetCtx := query.WithBudget(liveCtx, query.Budget{MaxVisitedDoors: 1 << 30, MaxWorkBytes: 1 << 40})

	// Warm the lazy door-pair distance cache once over the full point sweep
	// so neither side pays first-touch fills during measurement.
	var warm query.Stats
	for i := range pts {
		if _, err := eng.SPD(pts[i], pts[(i+1)%len(pts)], &warm); err != nil && err != query.ErrUnreachable {
			fmt.Fprintln(os.Stderr, "isqctxbench: warmup:", err)
			os.Exit(1)
		}
	}

	spdPlain := func(b *testing.B) {
		var st query.Stats
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.SPD(pts[i%len(pts)], pts[(i+1)%len(pts)], &st); err != nil && err != query.ErrUnreachable {
				b.Fatal(err)
			}
		}
	}
	spdCtx := func(ctx context.Context) func(b *testing.B) {
		return func(b *testing.B) {
			var st query.Stats
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := query.SPD(ctx, eng, pts[i%len(pts)], pts[(i+1)%len(pts)], &st); err != nil && err != query.ErrUnreachable {
					b.Fatal(err)
				}
			}
		}
	}
	rangePlain := func(b *testing.B) {
		var st query.Stats
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Range(pts[i%len(pts)], 40, &st); err != nil {
				b.Fatal(err)
			}
		}
	}
	rangeCtx := func(b *testing.B) {
		var st query.Stats
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := query.Range(liveCtx, eng, pts[i%len(pts)], 40, &st); err != nil {
				b.Fatal(err)
			}
		}
	}
	knnPlain := func(b *testing.B) {
		var st query.Stats
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.KNN(pts[i%len(pts)], 10, &st); err != nil {
				b.Fatal(err)
			}
		}
	}
	knnCtx := func(b *testing.B) {
		var st query.Stats
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := query.KNN(liveCtx, eng, pts[i%len(pts)], 10, &st); err != nil {
				b.Fatal(err)
			}
		}
	}

	type row struct {
		Untracked   mb      `json:"untracked"`
		Tracked     mb      `json:"tracked"`
		OverheadPct float64 `json:"ns_op_overhead_pct"`
	}
	report := map[string]any{}
	sweep := map[string]any{}
	var spdUntracked mb
	for _, bm := range []struct {
		name      string
		untracked func(b *testing.B)
		tracked   func(b *testing.B)
	}{
		{"spd", spdPlain, spdCtx(liveCtx)},
		{"spd_budget", spdPlain, spdCtx(budgetCtx)},
		{"range_r40", rangePlain, rangeCtx},
		{"knn_k10", knnPlain, knnCtx},
	} {
		before := run(bm.untracked)
		after := run(bm.tracked)
		if bm.name == "spd" {
			spdUntracked = before
		}
		sweep[bm.name] = row{Untracked: before, Tracked: after, OverheadPct: overheadPct(before, after)}
		fmt.Printf("CIndex %-10s untracked %10.0f ns/op %6d allocs/op | tracked %10.0f ns/op %6d allocs/op | %+.2f%% ns/op\n",
			bm.name, before.NsOp, before.AllocsOp, after.NsOp, after.AllocsOp, overheadPct(before, after))
	}
	report["cindex_ctx_overhead"] = sweep

	// Cross-PR reference: the uncancelled SPD path must not have regressed
	// against the PR2 cached sweep. The in-run untracked-vs-tracked pair is
	// the primary (same-machine, same-run) criterion; the PR2 number is
	// recorded for continuity but crosses runs, so it carries machine noise.
	if ns, ok := pr2SPDNsOp(*pr2); ok {
		report["spd_vs_pr2"] = map[string]any{
			"pr2_cached_ns_op":     ns,
			"pr3_untracked_ns_op":  spdUntracked.NsOp,
			"change_pct":           100 * (spdUntracked.NsOp - ns) / ns,
			"note":                 "cross-run comparison against " + *pr2 + "; same space parameters, different process",
			"acceptance_criterion": "cindex_ctx_overhead.spd.ns_op_overhead_pct <= 2",
		}
		fmt.Printf("SPD vs PR2: %.0f ns/op (PR2 cached) -> %.0f ns/op (PR3 untracked), %+.2f%%\n",
			ns, spdUntracked.NsOp, 100*(spdUntracked.NsOp-ns)/ns)
	}

	full := map[string]any{
		"pr":    3,
		"title": "Context tracking overhead on hot query paths (cancellation, deadlines, work budgets)",
		"date":  time.Now().Format("2006-01-02"),
		"runner": map[string]any{
			"cpu":   cpuModel(),
			"nproc": runtime.NumCPU(),
			"note":  "untracked = plain SPD/Range/KNN entry points (Track no-op); tracked = query.SPD/Range/KNN under a live cancellable context, paying one ctx.Err poll per query.CheckInterval door expansions. spd_budget additionally arms generous MaxVisitedDoors/MaxWorkBytes limits. Space: RandomGridConcave grid, lazy distance cache pre-warmed on both sides.",
		},
		"space": map[string]any{
			"rows": *rows, "cols": *cols, "floors": *floors,
			"partitions": sp.NumPartitions(), "doors": sp.NumDoors(),
		},
		"check_interval": query.CheckInterval,
		"benchmarks":     report,
	}
	data, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "isqctxbench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "isqctxbench:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", *out)
}
