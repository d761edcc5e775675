// Command isqperf is the repository's performance tool: named scenarios that
// share one harness, one answer gate and one report schema.
//
// Usage:
//
//	isqperf [-smoke] [-o FILE] [scenario ...]
//	isqperf compare OLD NEW
//
// Scenarios (default: all, in this order):
//
//	cache  CINDEX with and without the lazy door-pair distance cache
//	ctx    context tracking (cancellation, budgets) on the hot query paths
//	obs    the metrics registry and per-query trace on the hot query paths
//	graph  CSR door-graph build, Dijkstra sweeps and CINDEX SPDQ at 10^3-10^5 doors
//	reach  reachability pruning vs SetReach(nil) twins, open and closed-wing venues
//	snap   cold bundle build vs snapshot load, and hot swap under query load
//	route  routed vs pinned-engine serving on a skewed multi-venue mix
//	host   Space.HostPartition's scan vs CINDEX's R-tree host lookup on perfbench's venues
//	move   the sharded moving.Stream vs the scan-all moving.Monitor
//	paper  the paper's tasks A and B1–B7 over Table 5's grids, its claims as bounds
//
// Every scenario first runs its answer gate: the two sides of each
// comparison answer the same exec.Op list and sameResults must hold, else
// the run aborts before any timing. Each scenario's bounds are then written
// into the report as pass/fail, and a full run exits non-zero after writing
// the report if any bound failed. -smoke runs every gate on tiny venues
// with no timing and no bounds.
//
// The report (standard output unless -o is given) is one JSON document: the
// runner fingerprint, then per scenario its name, params, gate, bounds and
// rows of {name, metrics}.
//
// compare reads two such reports and prints the old value, the new value
// and the change in percent for every (scenario, row, metric), then the
// rows only one of them has.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

var scenarios = []struct {
	name string
	run  func(sc *scenario, smoke bool) error
}{
	{"cache", runCache},
	{"ctx", runCtx},
	{"obs", runObs},
	{"graph", runGraph},
	{"reach", runReach},
	{"snap", runSnap},
	{"route", runRoute},
	{"host", runHost},
	{"move", runMove},
	{"paper", runPaper},
}

type report struct {
	Runner    runner      `json:"runner"`
	Scenarios []*scenario `json:"scenarios"`
}

// runner is the fingerprint of the machine a report was measured on.
type runner struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

type scenario struct {
	Name   string         `json:"name"`
	Params map[string]any `json:"params"`
	Gate   string         `json:"gate"`
	Bounds []bound        `json:"bounds"`
	Rows   []row          `json:"rows"`
}

// bound is one acceptance criterion of a scenario, checked in full mode.
type bound struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Pass  bool    `json:"pass"`
}

type row struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

func (sc *scenario) row(name string, metrics map[string]float64) {
	sc.Rows = append(sc.Rows, row{name, metrics})
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%.4g", k, metrics[k])
	}
	logf("[%s] %s:%s", sc.Name, name, b.String())
}

func (sc *scenario) bound(name string, value float64, pass bool) {
	sc.Bounds = append(sc.Bounds, bound{name, value, pass})
	verdict := "pass"
	if !pass {
		verdict = "FAIL"
	}
	logf("[%s] bound %s: %.4g %s", sc.Name, name, value, verdict)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// run executes the named scenarios in order. The first answer divergence
// (or setup failure) aborts the run.
func run(names []string, smoke bool) (*report, error) {
	rep := &report{Runner: runner{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}}
	for _, name := range names {
		for _, s := range scenarios {
			if s.name != name {
				continue
			}
			sc := &scenario{Name: name, Params: map[string]any{}, Bounds: []bound{}, Rows: []row{}}
			if err := s.run(sc, smoke); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			rep.Scenarios = append(rep.Scenarios, sc)
		}
	}
	return rep, nil
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "isqperf:", err)
	os.Exit(1)
}

func main() {
	if spec := os.Getenv(snapChildEnv); spec != "" {
		snapChild(spec)
		return
	}
	out := flag.String("o", "", "write the JSON report to `FILE` (default: standard output)")
	smoke := flag.Bool("smoke", false, "run every answer gate on tiny venues, with no timing")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: isqperf [-smoke] [-o FILE] [scenario ...]\n       isqperf compare OLD NEW")
		flag.PrintDefaults()
		fmt.Fprint(os.Stderr, "scenarios:")
		for _, s := range scenarios {
			fmt.Fprint(os.Stderr, " ", s.name)
		}
		fmt.Fprintln(os.Stderr)
	}
	flag.Parse()

	names := flag.Args()
	if len(names) > 0 && names[0] == "compare" {
		if len(names) != 3 {
			flag.Usage()
			os.Exit(2)
		}
		oldRep, err := readReport(names[1])
		if err != nil {
			die(err)
		}
		newRep, err := readReport(names[2])
		if err != nil {
			die(err)
		}
		if err := compare(os.Stdout, oldRep, newRep); err != nil {
			die(err)
		}
		return
	}
	if len(names) == 0 {
		for _, s := range scenarios {
			names = append(names, s.name)
		}
	}
	for _, name := range names {
		known := false
		for _, s := range scenarios {
			known = known || s.name == name
		}
		if !known {
			flag.Usage()
			os.Exit(2)
		}
	}

	rep, err := run(names, *smoke)
	if err != nil {
		die(err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		die(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		die(err)
	} else {
		logf("wrote %s", *out)
	}

	failed := 0
	for _, sc := range rep.Scenarios {
		for _, b := range sc.Bounds {
			if !b.Pass {
				logf("bound failed: %s: %s = %.4g", sc.Name, b.Name, b.Value)
				failed++
			}
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}
