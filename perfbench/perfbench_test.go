package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"indoorsq/internal/obs"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSelf runs every workload on tiny venues for a fraction of a second,
// untraced and traced, and checks that the gates pass and that every
// metric BENCHMARK.json names is reported with its unit. Every workload
// BENCHMARK.json lists must exist; wide_range runs here too although the
// file leaves it out.
func TestSelf(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := lookupWorkload(w.Name, true); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, rep, err := run(config{
				workload: name,
				seed:     3,
				window:   400 * time.Millisecond,
				warm:     100 * time.Millisecond,
				traced:   traced,
				tiny:     true,
				setups:   2,
				workdir:  t.TempDir(),
				commit:   "test",
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || rep.GateError != "" {
				t.Fatalf("%s traced=%v: gate failed: %s", name, traced, rep.GateError)
			}
			if rep.QueriesChecked+rep.MonitorsChecked == 0 {
				t.Errorf("%s traced=%v: the gate checked nothing", name, traced)
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d", name, traced, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s has unit %q, want %q", name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

func TestStageSelfSubtractsNestedSpans(t *testing.T) {
	spans := []obs.Span{
		{Stage: obs.StageRefine, Start: 50, Dur: 10},
		{Stage: obs.StageExpand, Start: 10, Dur: 30},
		{Stage: obs.StageProbe, Start: 15, Dur: 5}, // inside the expansion
		{Stage: obs.StageHost, Start: 0, Dur: 10},
	}
	got := stageSelf(spans)
	want := [numStages]time.Duration{10, 5, 25, 10}
	if got != want {
		t.Fatalf("stageSelf = %v, want %v", got, want)
	}
}

func TestEngineIndex(t *testing.T) {
	if got := engineIndex([]byte(`{"objects":[1],"engine":"IPTree","epoch":1}`)); got != 3 {
		t.Errorf("engineIndex = %d, want 3", got)
	}
	if got := engineIndex([]byte(`{"error":"x"}`)); got != -1 {
		t.Errorf("engineIndex without engine = %d, want -1", got)
	}
}
