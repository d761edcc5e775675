package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	osexec "os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"indoorsq/internal/indoor"
	"indoorsq/internal/server"
	"indoorsq/internal/snapshot/bundle"
	"indoorsq/internal/spacegen"
	"indoorsq/internal/tenant"
	"indoorsq/internal/workload"
)

// snapTier is one venue of the snap scenario with the engine set buildable
// at its scale (IDINDEX's O(n^2) matrices rule it out beyond 10^3 doors).
// The 10^5-door tier of the first snapshot report is not run: its cold
// build peaks near 10 GB of RSS and writes a 10 GB artifact.
type snapTier struct {
	name       string
	rows, cols int
	engines    []string
}

var snapTiers = []snapTier{
	{"1k", 31, 31, []string{"IDIndex", "CIndex", "VIPTree"}},
	{"10k", 100, 99, []string{"CIndex", "IPTree"}},
}

var snapSmokeTier = snapTier{"smoke", 8, 8, bundle.EngineNames}

func (t snapTier) venue() (*indoor.Space, error) {
	return spacegen.Generate(int64(t.rows), spacegen.Params{
		Floors: 1, Rows: t.rows, Cols: t.cols, Hall: spacegen.HallStraight,
		ExtraDoors: 4, OneWayFrac: 0.1, Imbalance: 0.3,
	}.Normalize())
}

func (t snapTier) build(sp *indoor.Space) (*bundle.Bundle, error) {
	return bundle.Build(t.name, sp, bundle.Options{Engines: t.engines, Gamma: 6})
}

// snapChildEnv, when set to "build|load:TIER:PATH", makes the process run
// one pass of the snap scenario and print a snapResult: build and load
// each run in a fresh process so peak RSS isolates one pass.
const snapChildEnv = "ISQPERF_SNAP_CHILD"

type snapResult struct {
	Doors      int     `json:"doors"`
	Partitions int     `json:"partitions"`
	WallMs     float64 `json:"wall_ms"`
	PeakRssMB  float64 `json:"peak_rss_mb"`
	FileMB     float64 `json:"file_mb"`
}

func snapChild(spec string) {
	parts := strings.SplitN(spec, ":", 3)
	if len(parts) != 3 {
		die(fmt.Errorf("%s=%q: want MODE:TIER:PATH", snapChildEnv, spec))
	}
	mode, path := parts[0], parts[2]
	var t snapTier
	for _, c := range snapTiers {
		if c.name == parts[1] {
			t = c
		}
	}
	if t.name == "" {
		die(fmt.Errorf("%s=%q: unknown tier", snapChildEnv, spec))
	}
	sp, err := t.venue()
	if err != nil {
		die(err)
	}
	res := snapResult{Doors: sp.NumDoors(), Partitions: sp.NumPartitions()}
	start := time.Now()
	switch mode {
	case "build":
		b, err := t.build(sp)
		if err != nil {
			die(err)
		}
		res.WallMs = ms(time.Since(start))
		if err := b.WriteFile(path, true); err != nil {
			die(err)
		}
	case "load":
		if _, err := bundle.LoadFile(path); err != nil {
			die(err)
		}
		res.WallMs = ms(time.Since(start))
	default:
		die(fmt.Errorf("unknown snap child mode %q", mode))
	}
	if st, err := os.Stat(path); err == nil {
		res.FileMB = float64(st.Size()) / 1e6
	}
	res.PeakRssMB = peakRSS()
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		die(err)
	}
}

// peakRSS reads VmHWM, the process's resident-set high-water mark, in MB.
func peakRSS() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(v), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

func reexec(mode string, t snapTier, path string) (snapResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return snapResult{}, err
	}
	cmd := osexec.Command(exe)
	cmd.Env = append(os.Environ(), snapChildEnv+"="+mode+":"+t.name+":"+path)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return snapResult{}, fmt.Errorf("%s %s child: %w", mode, t.name, err)
	}
	var res snapResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return snapResult{}, fmt.Errorf("%s %s child output %q: %w", mode, t.name, stdout.String(), err)
	}
	return res, nil
}

// runSnap compares a cold bundle.Build of each tier's engine set with
// bundle.LoadFile of the artifact it wrote (wall clock and peak RSS, one
// process per pass; peak RSS includes generating the venue in both), then
// times POST /v1/swap on a one-venue tier while four goroutines query it.
func runSnap(sc *scenario, smoke bool) error {
	sc.Gate = "every engine loaded from the artifact answers range/kNN/SPD bit-identically to the built one; no query fails during swaps"
	dir, err := os.MkdirTemp("", "isqperf-snap")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	tiers := snapTiers
	if smoke {
		tiers = []snapTier{snapSmokeTier}
	}
	for _, t := range tiers {
		path := filepath.Join(dir, t.name+".isq")
		sc.Params[t.name+"_engines"] = t.engines
		if err := snapGate(t, path); err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		if smoke {
			continue
		}
		build, err := reexec("build", t, path)
		if err != nil {
			return err
		}
		load, err := reexec("load", t, path)
		if err != nil {
			return err
		}
		sc.row(t.name, map[string]float64{
			"doors": float64(build.Doors), "partitions": float64(build.Partitions), "artifact_mb": build.FileMB,
			"cold_build_ms": build.WallMs, "cold_peak_mb": build.PeakRssMB,
			"load_ms": load.WallMs, "load_peak_mb": load.PeakRssMB, "load_speedup": build.WallMs / load.WallMs,
		})
	}
	swaps := 10
	if smoke {
		swaps = 3
	}
	swap, err := measureSwap(filepath.Join(dir, tiers[0].name+".isq"), swaps)
	if err != nil {
		return err
	}
	if !smoke {
		sc.row("swap", swap)
	}
	return nil
}

// snapGate builds the tier in-process, writes it to path, and compares
// every engine with its counterpart loaded back from path.
func snapGate(t snapTier, path string) error {
	sp, err := t.venue()
	if err != nil {
		return err
	}
	built, err := t.build(sp)
	if err != nil {
		return err
	}
	if err := built.WriteFile(path, true); err != nil {
		return err
	}
	loaded, err := bundle.LoadFile(path)
	if err != nil {
		return err
	}
	gen := workload.New(sp, 4)
	objs := gen.Objects(64)
	ops := mixOps(gen.Points(16), 16, 20, 5)
	for _, name := range built.EngineList() {
		be, le := built.Engines[name], loaded.Engines[name]
		if le == nil {
			return fmt.Errorf("gate: engine %s missing after load", name)
		}
		be.SetObjects(objs)
		le.SetObjects(objs)
		want := answers(context.Background(), be, ops)
		if err := sameResults(ops, want, answers(context.Background(), le, ops), 0); err != nil {
			return fmt.Errorf("%s after load: %w", name, err)
		}
	}
	return nil
}

// measureSwap times POST /v1/swap on a one-venue tier pinned to the
// artifact's first engine while four goroutines query it; any failed
// query aborts the scenario.
func measureSwap(path string, swaps int) (map[string]float64, error) {
	b, err := bundle.LoadFile(path)
	if err != nil {
		return nil, err
	}
	tier, err := tenant.New([]tenant.VenueSpec{{
		ID: b.Name, Bundle: b, ObjectList: workload.New(b.Space, 1).Objects(256),
	}}, tenant.Options{})
	if err != nil {
		return nil, err
	}
	venue := func() *tenant.Venue { v, _ := tier.Venue(b.Name); return v }
	if err := venue().Router().Pin("", b.EngineList()[0]); err != nil {
		return nil, err
	}
	handler := server.NewTenantServer(tier).Handler()
	pts := workload.New(b.Space, 2).Points(8)

	done := make(chan struct{})
	var wg sync.WaitGroup
	var failed atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				p, q := pts[i%len(pts)], pts[(i+3)%len(pts)]
				url := fmt.Sprintf("/v1/range?x=%g&y=%g&floor=%d&r=40", p.X, p.Y, p.Floor)
				switch i % 3 {
				case 1:
					url = fmt.Sprintf("/v1/knn?x=%g&y=%g&floor=%d&k=5", p.X, p.Y, p.Floor)
				case 2:
					url = fmt.Sprintf("/v1/route?x=%g&y=%g&floor=%d&x2=%g&y2=%g&floor2=%d",
						p.X, p.Y, p.Floor, q.X, q.Y, q.Floor)
				}
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
				if rec.Code != http.StatusOK && rec.Code != http.StatusUnprocessableEntity {
					failed.Add(1)
				}
			}
		}()
	}
	lat := make([]float64, 0, swaps)
	body := fmt.Sprintf(`{"path":%q}`, path)
	var swapErr error
	for i := 0; i < swaps && swapErr == nil; i++ {
		rec := httptest.NewRecorder()
		start := time.Now()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/swap", strings.NewReader(body)))
		lat = append(lat, ms(time.Since(start)))
		if rec.Code != http.StatusOK {
			swapErr = fmt.Errorf("swap %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	close(done)
	wg.Wait()
	if swapErr != nil {
		return nil, swapErr
	}
	if n := failed.Load(); n > 0 {
		return nil, fmt.Errorf("gate: %d queries failed during swaps", n)
	}
	sort.Float64s(lat)
	return map[string]float64{
		"swaps": float64(swaps), "query_goroutines": 4, "failed_queries": 0,
		"p50_ms": lat[len(lat)/2], "max_ms": lat[len(lat)-1], "final_epoch": float64(venue().Epoch()),
	}, nil
}
