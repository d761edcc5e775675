// Command isqobsbench measures the steady-state cost of the observability
// layer on the hot query paths and writes the comparison to a JSON report
// (BENCH_PR4.json).
//
// "Disabled" runs query.SPD/Range/KNN under a live context with no obs
// binding: query.Begin finds nothing and the per-query accounting is a
// single context lookup. "Enabled" binds a live metrics registry to the
// same context, so every query pays the series lookup, the counter deltas,
// and one histogram observation. A third SPD variant additionally attaches
// a per-query trace, paying the span records too. The acceptance criterion
// is that the enabled registry costs within noise of the disabled path —
// the enabled SPDQ ns/op must not regress by more than ~2%, and the
// disabled path must allocate exactly as much as the plain entry points.
//
// Usage:
//
//	isqobsbench [-o BENCH_PR4.json] [-rows 6] [-cols 6] [-floors 2]
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
	"indoorsq/internal/obs"
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

// overheadPct returns how much slower b is than a, in percent (negative
// means b measured faster, i.e. pure noise).
func overheadPct(a, b mb) float64 {
	if a.NsOp == 0 {
		return 0
	}
	return 100 * (b.NsOp - a.NsOp) / a.NsOp
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

func main() {
	var (
		out    = flag.String("o", "BENCH_PR4.json", "output JSON path")
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

	// A live, never-cancelled context: both sides pay the same amortized
	// ctx.Err probes, isolating the obs delta from the PR3 tracking cost.
	liveCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg := obs.NewRegistry()
	obsCtx := obs.WithRegistry(liveCtx, reg)

	// Warm the lazy door-pair distance cache once over the full point sweep
	// so no side pays first-touch fills during measurement.
	var warm query.Stats
	for i := range pts {
		if _, err := eng.SPD(pts[i], pts[(i+1)%len(pts)], &warm); err != nil && err != query.ErrUnreachable {
			fmt.Fprintln(os.Stderr, "isqobsbench: warmup:", err)
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
	// spdTraced binds a fresh trace per iteration on top of the registry —
	// the /v1/trace request shape.
	spdTraced := func(b *testing.B) {
		var st query.Stats
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx := obs.WithTrace(obsCtx, obs.NewTrace())
			if _, err := query.SPD(ctx, eng, pts[i%len(pts)], pts[(i+1)%len(pts)], &st); err != nil && err != query.ErrUnreachable {
				b.Fatal(err)
			}
		}
	}
	rangeCtx := func(ctx context.Context) func(b *testing.B) {
		return func(b *testing.B) {
			var st query.Stats
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := query.Range(ctx, eng, pts[i%len(pts)], 40, &st); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	knnCtx := func(ctx context.Context) func(b *testing.B) {
		return func(b *testing.B) {
			var st query.Stats
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := query.KNN(ctx, eng, pts[i%len(pts)], 10, &st); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	type row struct {
		Disabled    mb      `json:"disabled"`
		Enabled     mb      `json:"enabled"`
		OverheadPct float64 `json:"ns_op_overhead_pct"`
	}
	report := map[string]any{}
	sweep := map[string]any{}
	var spdDisabled, spdEnabled mb
	for _, bm := range []struct {
		name     string
		disabled func(b *testing.B)
		enabled  func(b *testing.B)
	}{
		{"spd", spdCtx(liveCtx), spdCtx(obsCtx)},
		{"spd_traced", spdCtx(liveCtx), spdTraced},
		{"range_r40", rangeCtx(liveCtx), rangeCtx(obsCtx)},
		{"knn_k10", knnCtx(liveCtx), knnCtx(obsCtx)},
	} {
		before := run(bm.disabled)
		after := run(bm.enabled)
		if bm.name == "spd" {
			spdDisabled, spdEnabled = before, after
		}
		sweep[bm.name] = row{Disabled: before, Enabled: after, OverheadPct: overheadPct(before, after)}
		fmt.Printf("CIndex %-10s disabled %10.0f ns/op %6d allocs/op | enabled %10.0f ns/op %6d allocs/op | %+.2f%% ns/op\n",
			bm.name, before.NsOp, before.AllocsOp, after.NsOp, after.AllocsOp, overheadPct(before, after))
	}
	report["cindex_obs_overhead"] = sweep

	// The disabled path must also be free relative to the plain entry
	// points: same allocs/op, ns/op within noise (this is the PR3 tracking
	// cost, not an obs cost, but the report keeps the chain explicit).
	plain := run(spdPlain)
	report["spd_disabled_vs_plain"] = map[string]any{
		"plain":                   plain,
		"disabled_ctx":            spdDisabled,
		"ns_op_overhead_pct":      overheadPct(plain, spdDisabled),
		"allocs_op_match":         plain.AllocsOp == spdDisabled.AllocsOp,
		"acceptance_criterion":    "allocs_op_match == true",
		"enabled_ns_overhead_pct": overheadPct(spdDisabled, spdEnabled),
	}
	fmt.Printf("SPD plain %10.0f ns/op %6d allocs/op | disabled-ctx %10.0f ns/op %6d allocs/op | %+.2f%% ns/op\n",
		plain.NsOp, plain.AllocsOp, spdDisabled.NsOp, spdDisabled.AllocsOp, overheadPct(plain, spdDisabled))

	full := map[string]any{
		"pr":    4,
		"title": "Observability layer overhead on hot query paths (metrics registry, per-query trace)",
		"date":  time.Now().Format("2006-01-02"),
		"runner": map[string]any{
			"cpu":   cpuModel(),
			"nproc": runtime.NumCPU(),
			"note":  "disabled = query.SPD/Range/KNN under a live context with no obs binding (query.Begin finds nothing); enabled = same context with a live obs.Registry bound, paying the series lookup, counter deltas, and one histogram observation per query. spd_traced additionally binds a fresh obs.Trace per query (the /v1/trace shape). Space: RandomGridConcave grid, lazy distance cache pre-warmed on all sides.",
		},
		"space": map[string]any{
			"rows": *rows, "cols": *cols, "floors": *floors,
			"partitions": sp.NumPartitions(), "doors": sp.NumDoors(),
		},
		"acceptance_criterion": "cindex_obs_overhead.spd.ns_op_overhead_pct <= 2 and spd_disabled_vs_plain.allocs_op_match",
		"benchmarks":           report,
	}
	data, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "isqobsbench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "isqobsbench:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", *out)
}
