// Command isqsnapbench measures what the snapshot subsystem buys: cold
// engine construction vs snapshot load (wall clock and peak RSS) at venues
// of roughly 10^3, 10^4 and 10^5 doors, plus the latency of an atomic
// serving-state swap while queries hammer the server.
//
// Usage:
//
//	isqsnapbench [-o BENCH_PR8.json]
//	isqsnapbench -smoke
//
// Venues reuse the door-graph bench recipe (single-floor spacegen grids at
// 31x31, 100x99 and 316x316 rooms). Engine sets shrink as venues grow,
// matching what is buildable at each scale: IDINDEX's O(n^2) matrices need
// ~160 GB at 10^5 doors, so the 10k and 100k tiers carry CINDEX + IPTREE
// and the 1k tier IDINDEX + CINDEX + VIPTREE.
//
// Build and load run in re-exec'd child processes so peak RSS (VmHWM from
// /proc/self/status) isolates one pass each; the venue is generated inside
// the child either way, so the cold/load comparison is engine construction
// vs artifact load on an otherwise identical process. The swap measurement
// runs in-process: a server over the 1k-tier artifact answers queries from
// four goroutines while POST /v1/swap republishes the state ten times.
//
// -smoke is the verify-full hook: a tiny venue, one build/save/load cycle
// asserting loaded engines answer identically, and three swaps under load.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"indoorsq/internal/query"
	"indoorsq/internal/server"
	"indoorsq/internal/snapshot/bundle"
	"indoorsq/internal/spacegen"
	"indoorsq/internal/tenant"
	"indoorsq/internal/workload"
)

type tier struct {
	Name    string
	Rows    int
	Cols    int
	Engines []string
}

var tiers = []tier{
	{"1k", 31, 31, []string{"IDIndex", "CIndex", "VIPTree"}},
	{"10k", 100, 99, []string{"CIndex", "IPTree"}},
	{"100k", 316, 316, []string{"CIndex", "IPTree"}},
}

func venue(t tier) (*spacegen.Params, int64) {
	p := spacegen.Params{
		Floors:     1,
		Rows:       t.Rows,
		Cols:       t.Cols,
		Hall:       spacegen.HallStraight,
		ExtraDoors: 4,
		OneWayFrac: 0.1,
		Imbalance:  0.3,
	}.Normalize()
	return &p, int64(t.Rows)
}

// childResult is the JSON one re-exec'd pass prints on stdout.
type childResult struct {
	Doors      int     `json:"doors"`
	Partitions int     `json:"partitions"`
	WallMs     float64 `json:"wallMs"`
	PeakRssMB  float64 `json:"peakRssMB"`
	FileMB     float64 `json:"fileMB"`
}

func main() {
	var (
		out   = flag.String("o", "BENCH_PR8.json", "output report path")
		smoke = flag.Bool("smoke", false, "tiny in-process pass for verify-full")
		child = flag.String("child", "", "internal: run one pass (build|load) and print JSON")
		tname = flag.String("tier", "", "internal: tier name for -child")
		snap  = flag.String("snap", "", "internal: artifact path for -child")
	)
	flag.Parse()

	if *child != "" {
		runChild(*child, *tname, *snap)
		return
	}
	if *smoke {
		runSmoke()
		return
	}
	runFull(*out)
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "isqsnapbench:", err)
	os.Exit(1)
}

// peakRSS reads VmHWM (the process high-water resident set) in MB.
func peakRSS() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

func tierByName(name string) tier {
	for _, t := range tiers {
		if t.Name == name {
			return t
		}
	}
	die(fmt.Errorf("unknown tier %q", name))
	return tier{}
}

func runChild(mode, tname, snap string) {
	t := tierByName(tname)
	params, seed := venue(t)
	sp, err := spacegen.Generate(seed, *params)
	if err != nil {
		die(err)
	}
	res := childResult{Doors: sp.NumDoors(), Partitions: sp.NumPartitions()}
	switch mode {
	case "build":
		start := time.Now()
		b, err := bundle.Build(tname, sp, bundle.Options{Engines: t.Engines, Gamma: 6})
		if err != nil {
			die(err)
		}
		res.WallMs = float64(time.Since(start).Nanoseconds()) / 1e6
		if err := b.WriteFile(snap, true); err != nil {
			die(err)
		}
	case "load":
		start := time.Now()
		b, err := bundle.LoadFile(snap)
		if err != nil {
			die(err)
		}
		res.WallMs = float64(time.Since(start).Nanoseconds()) / 1e6
		if len(b.Engines) != len(t.Engines) {
			die(fmt.Errorf("loaded %d engines, want %d", len(b.Engines), len(t.Engines)))
		}
	default:
		die(fmt.Errorf("unknown child mode %q", mode))
	}
	if st, err := os.Stat(snap); err == nil {
		res.FileMB = float64(st.Size()) / 1e6
	}
	res.PeakRssMB = peakRSS()
	json.NewEncoder(os.Stdout).Encode(res)
}

func reexec(args ...string) childResult {
	exe, err := os.Executable()
	if err != nil {
		die(err)
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		die(fmt.Errorf("child %v: %w", args, err))
	}
	var res childResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		die(fmt.Errorf("child %v output %q: %w", args, stdout.String(), err))
	}
	return res
}

func runFull(out string) {
	dir, err := os.MkdirTemp("", "isqsnapbench")
	if err != nil {
		die(err)
	}
	defer os.RemoveAll(dir)

	var rows []map[string]any
	for _, t := range tiers {
		snap := filepath.Join(dir, t.Name+".isq")
		fmt.Printf("[%s] cold build (%s)...\n", t.Name, strings.Join(t.Engines, ","))
		build := reexec("-child", "build", "-tier", t.Name, "-snap", snap)
		fmt.Printf("[%s] %d doors: build %.0f ms, peak RSS %.0f MB, artifact %.1f MB\n",
			t.Name, build.Doors, build.WallMs, build.PeakRssMB, build.FileMB)
		load := reexec("-child", "load", "-tier", t.Name, "-snap", snap)
		speedup := build.WallMs / load.WallMs
		fmt.Printf("[%s] snapshot load %.0f ms, peak RSS %.0f MB — %.1fx faster than cold build\n",
			t.Name, load.WallMs, load.PeakRssMB, speedup)
		rows = append(rows, map[string]any{
			"tier":          t.Name,
			"doors":         build.Doors,
			"partitions":    build.Partitions,
			"engines":       t.Engines,
			"artifact_mb":   build.FileMB,
			"cold_build_ms": build.WallMs,
			"cold_peak_mb":  build.PeakRssMB,
			"load_ms":       load.WallMs,
			"load_peak_mb":  load.PeakRssMB,
			"load_speedup":  speedup,
		})
	}

	swapStats := measureSwap(filepath.Join(dir, "1k.isq"), 10)

	full := map[string]any{
		"pr":    8,
		"title": "Versioned serving snapshots: binary artifact, zero-copy load, atomic hot swap",
		"date":  time.Now().Format("2006-01-02"),
		"runner": map[string]any{
			"cpu":   runtime.GOARCH,
			"nproc": runtime.NumCPU(),
			"note": "cold build = bundle.Build of the tier's engine set over an in-memory venue " +
				"(door graph, both reach summaries, engine matrices); load = bundle.LoadFile of the " +
				"artifact written by the build pass (includes parsing the space and warm cache pages). " +
				"Each pass runs in its own process; peak RSS is VmHWM and includes venue generation " +
				"in both. swap_ms are POST /v1/swap latencies (load + atomic publish) measured while " +
				"four goroutines hammer range/knn/route on the serving state.",
		},
		"tiers": rows,
		"swap":  swapStats,
	}
	data, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		die(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		die(err)
	}
	fmt.Println("wrote", out)
}

// measureSwap times POST /v1/swap on a one-venue tier answering concurrent
// queries, pinned to the artifact's first engine.
func measureSwap(snap string, swaps int) map[string]any {
	b, err := bundle.LoadFile(snap)
	if err != nil {
		die(err)
	}
	tier, err := tenant.New([]tenant.VenueSpec{{
		ID: b.Name, Bundle: b, ObjectList: workload.New(b.Space, 1).Objects(256),
	}}, tenant.Options{})
	if err != nil {
		die(err)
	}
	venue := func() *tenant.Venue { v, _ := tier.Venue(b.Name); return v }
	if err := venue().Router().Pin("", b.EngineList()[0]); err != nil {
		die(err)
	}
	handler := server.NewTenantServer(tier).Handler()
	pts := workload.New(b.Space, 2).Points(8)

	done := make(chan struct{})
	var wg sync.WaitGroup
	var failed int64
	var mu sync.Mutex
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
				p := pts[i%len(pts)]
				q := pts[(i+3)%len(pts)]
				var url string
				switch i % 3 {
				case 0:
					url = fmt.Sprintf("/v1/range?x=%g&y=%g&floor=%d&r=40", p.X, p.Y, p.Floor)
				case 1:
					url = fmt.Sprintf("/v1/knn?x=%g&y=%g&floor=%d&k=5", p.X, p.Y, p.Floor)
				case 2:
					url = fmt.Sprintf("/v1/route?x=%g&y=%g&floor=%d&x2=%g&y2=%g&floor2=%d",
						p.X, p.Y, p.Floor, q.X, q.Y, q.Floor)
				}
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
				if rec.Code != http.StatusOK && rec.Code != http.StatusUnprocessableEntity {
					mu.Lock()
					failed++
					mu.Unlock()
				}
			}
		}()
	}
	lat := make([]float64, 0, swaps)
	body := fmt.Sprintf(`{"path":%q}`, snap)
	for i := 0; i < swaps; i++ {
		rec := httptest.NewRecorder()
		start := time.Now()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/swap", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			die(fmt.Errorf("swap %d: %d %s", i, rec.Code, rec.Body.String()))
		}
		lat = append(lat, float64(time.Since(start).Nanoseconds())/1e6)
	}
	close(done)
	wg.Wait()
	if failed > 0 {
		die(fmt.Errorf("%d queries failed during swaps", failed))
	}
	sort.Float64s(lat)
	stats := map[string]any{
		"swaps":            swaps,
		"query_goroutines": 4,
		"failed_queries":   failed,
		"p50_ms":           lat[len(lat)/2],
		"max_ms":           lat[len(lat)-1],
		"final_epoch":      venue().Epoch(),
	}
	fmt.Printf("[swap] %d swaps under load: p50 %.1f ms, max %.1f ms, 0 failed queries\n",
		swaps, lat[len(lat)/2], lat[len(lat)-1])
	return stats
}

// runSmoke is the verify-full hook: everything above, shrunk to seconds.
func runSmoke() {
	params := spacegen.Params{
		Floors: 2, Rows: 8, Cols: 8, ExtraDoors: 2, OneWayFrac: 0.2,
	}.Normalize()
	sp, err := spacegen.Generate(11, params)
	if err != nil {
		die(err)
	}
	dir, err := os.MkdirTemp("", "isqsnapsmoke")
	if err != nil {
		die(err)
	}
	defer os.RemoveAll(dir)
	snap := filepath.Join(dir, "smoke.isq")

	start := time.Now()
	built, err := bundle.Build("smoke", sp, bundle.Options{Gamma: 4})
	if err != nil {
		die(err)
	}
	buildMs := float64(time.Since(start).Nanoseconds()) / 1e6
	if err := built.WriteFile(snap, true); err != nil {
		die(err)
	}
	start = time.Now()
	loaded, err := bundle.LoadFile(snap)
	if err != nil {
		die(err)
	}
	loadMs := float64(time.Since(start).Nanoseconds()) / 1e6

	// Loaded engines must answer exactly like the built ones.
	objs := spacegen.Objects(sp, 3, 24)
	pairs := workload.New(sp, 4).SPDPairs(0.5, 4)
	for _, name := range built.EngineList() {
		be, le := built.Engines[name], loaded.Engines[name]
		be.SetObjects(objs)
		le.SetObjects(objs)
		var st query.Stats
		for _, pr := range pairs {
			bp, berr := be.SPD(pr.P, pr.Q, &st)
			lp, lerr := le.SPD(pr.P, pr.Q, &st)
			if (berr == nil) != (lerr == nil) ||
				(berr == nil && math.Float64bits(bp.Dist) != math.Float64bits(lp.Dist)) {
				die(fmt.Errorf("smoke: %s SPD diverged after load", name))
			}
		}
	}
	measureSwap(snap, 3)
	fmt.Printf("snapshot smoke OK: build %.0f ms, load %.1f ms, %d engines bit-identical\n",
		buildMs, loadMs, len(built.Engines))
}
