// Command perfbench is the closed-loop HTTP benchmark of the multi-venue
// serving tier. It boots the tier in process (generate, build, write a
// snapshot, tenant.New from the snapshot), serves it through the tenant
// HTTP handler on a loopback listener, checks a sample of answers against
// internal/oracle, and then drives the server with a closed loop of two
// clients, one keep-alive connection each, for the requested number of
// seconds. Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload serve_mix --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// half the window untraced and half traced through its own middleware and
// prints the per-layer metrics. The last line of standard output is the
// result object; the line before it is a report with the runner
// fingerprint, the gate outcome and, for traced runs, the layer table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	window   time.Duration // measured time (split A/B when traced)
	warm     time.Duration // unmeasured closed-loop warm-up before it
	traced   bool
	tiny     bool // tiny venues, for the self-test
	setups   int  // set-ups per run; setup_s is their median
	workdir  string
	commit   string
}

// clients is the closed loop's client count.
const clients = 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fingerprint identifies the runner and the inputs.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
}

// report is the line before the result: who ran what, the gate, and for
// traced runs the layer attribution.
type report struct {
	Fingerprint     fingerprint  `json:"fingerprint"`
	Seconds         float64      `json:"seconds"`
	Traced          bool         `json:"traced"`
	QueriesChecked  int          `json:"gate_queries_checked"`
	MonitorsChecked int          `json:"gate_monitors_checked"`
	GateError       string       `json:"gate_error,omitempty"`
	Requests        int          `json:"requests"`
	Slices          []float64    `json:"slice_throughput_ops_s,omitempty"`
	Layers          []layerShare `json:"layers,omitempty"`
	ClientMeanUs    float64      `json:"client_mean_us,omitempty"`
	AccountedShare  float64      `json:"accounted_share,omitempty"`
	TraceOverhead   float64      `json:"trace_overhead_share,omitempty"`
}

// layerShare is one row of the traced-run layer table.
type layerShare struct {
	Layer  string  `json:"layer"`
	MeanUs float64 `json:"mean_us"`
	Share  float64 `json:"share"`
}

func main() {
	workload := flag.String("workload", "", "workload: serve_mix, wide_range or ingest")
	seed := flag.Int64("seed", 1, "workload seed (request sequences, monitors, motion)")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	commit := flag.String("commit", "unknown", "commit recorded in the fingerprint")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		warm:     2 * time.Second,
		traced:   *trace == 1,
		setups:   7,
		workdir:  ".bench_build",
		commit:   *commit,
	}
	res, rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if rep.GateError != "" {
		fmt.Fprintln(os.Stderr, "perfbench:", rep.GateError)
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]any{"report": rep}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := out.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func newFingerprint(cfg config) fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     cfg.commit,
		Workload:   cfg.workload,
		Seed:       cfg.seed,
	}
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
