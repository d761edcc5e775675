package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"indoorsq/internal/exec"
	"indoorsq/internal/indoor"
	"indoorsq/internal/query"
)

// TestSmoke runs every scenario's answer gate on its tiny venues.
func TestSmoke(t *testing.T) {
	var names []string
	for _, s := range scenarios {
		names = append(names, s.name)
	}
	rep, err := run(names, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) != len(scenarios) {
		t.Fatalf("%d scenarios ran, want %d", len(rep.Scenarios), len(scenarios))
	}
	for _, sc := range rep.Scenarios {
		if sc.Gate == "" {
			t.Errorf("%s: no gate recorded", sc.Name)
		}
		if len(sc.Bounds) != 0 || len(sc.Rows) != 0 {
			t.Errorf("%s: smoke recorded %d bounds and %d rows, want none", sc.Name, len(sc.Bounds), len(sc.Rows))
		}
	}

	// compare on two tiny reports written to disk: one shared row with a
	// metric on each side only, one row per side, a bound that holds, an
	// exact one that flips (its old side written before verdicts, with
	// pass alone), a timing one that turns unresolved and one per side.
	dir := t.TempDir()
	write := func(name string, rep *report) string {
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldRep, err := readReport(write("old.json", &report{Scenarios: []*scenario{{Name: "move", Rows: []row{
		{"a", map[string]float64{"ups": 200, "gone": 1}},
		{"b", map[string]float64{"ups": 5}},
	}, Bounds: []bound{
		{Name: "flips", Value: 0, Pass: true}, {Name: "holds", Verdict: pass, Pass: true},
		{Name: "timed", Value: 0.5, Interval: []float64{-0.25, 1.5}, Verdict: pass, Pass: true},
		{Name: "dropped", Value: 1, Verdict: fail},
	}}}}))
	if err != nil {
		t.Fatal(err)
	}
	newRep, err := readReport(write("new.json", &report{Scenarios: []*scenario{{Name: "move", Rows: []row{
		{"a", map[string]float64{"ups": 250, "added": 3}},
		{"c", map[string]float64{"ups": 7}},
	}, Bounds: []bound{
		{Name: "holds", Verdict: pass, Pass: true}, {Name: "flips", Value: 2, Verdict: fail},
		{Name: "timed", Value: 1.75, Interval: []float64{1.25, 2.5}, Verdict: unresolved},
		{Name: "new", Verdict: pass, Pass: true},
	}}}}))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := compare(&out, oldRep, newRep); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, l := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		lines = append(lines, strings.Join(strings.Fields(l), " "))
	}
	want := []string{
		"scenario row metric old new delta%",
		"move a added - 3 -",
		"move a gone 1 - -",
		"move a ups 200 250 +25.0",
		"only in old: move b",
		"only in new: move c",
		"bound move flips: pass 0 -> fail 2",
		"bound move timed: pass 0.5 [-0.25, 1.5] -> unresolved 1.75 [1.25, 2.5]",
		"bound only in old: move dropped",
		"bound only in new: move new",
	}
	if !slices.Equal(lines, want) {
		t.Errorf("compare printed\n%s\nwant\n%s", strings.Join(lines, "\n"), strings.Join(want, "\n"))
	}
	if _, err := readReport(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("readReport of a missing file succeeded")
	}
}

// TestGateDetectsDivergence perturbs one answer of a known-good result
// set per case and requires sameResults to reject it.
func TestGateDetectsDivergence(t *testing.T) {
	p := indoor.At(1, 1, 0)
	ops := []exec.Op{
		{Kind: exec.RangeQ, P: p, R: 10},
		{Kind: exec.KNNQ, P: p, K: 2},
		{Kind: exec.SPDQ, P: p, Q: p},
		{Kind: exec.SPDQ, P: p, Q: p},
	}
	want := func() []exec.Result {
		return []exec.Result{
			{IDs: []int32{4, 1, 7}},
			{Neighbors: []query.Neighbor{{ID: 3, Dist: 1.5}, {ID: 9, Dist: 2.25}}},
			{Path: query.Path{Dist: 12.75}},
			{Err: query.ErrUnreachable},
		}
	}
	reordered := want()
	reordered[0].IDs = []int32{7, 4, 1}
	if err := sameResults(ops, want(), reordered, 0); err != nil {
		t.Fatalf("range ids in another order rejected: %v", err)
	}

	for _, c := range []struct {
		name    string
		tol     float64
		perturb func(r []exec.Result)
	}{
		{"range id dropped", 0, func(r []exec.Result) { r[0].IDs = r[0].IDs[:2] }},
		{"knn rank dist +1e-3", 1e-6, func(r []exec.Result) { r[1].Neighbors[1].Dist += 1e-3 }},
		{"knn rank dist +1e-3 at tol 0", 0, func(r []exec.Result) { r[1].Neighbors[1].Dist += 1e-3 }},
		{"spd error flipped to answer", 1e-6, func(r []exec.Result) { r[3].Err = nil }},
		{"spd answer flipped to error", 1e-6, func(r []exec.Result) { r[2].Err = query.ErrNoHost }},
		{"spd dist off by one ulp at tol 0", 0, func(r []exec.Result) {
			r[2].Path.Dist = math.Nextafter(r[2].Path.Dist, math.Inf(1))
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := sameResults(ops, want(), want(), c.tol); err != nil {
				t.Fatalf("unperturbed results rejected: %v", err)
			}
			got := want()
			c.perturb(got)
			if err := sameResults(ops, want(), got, c.tol); err == nil {
				t.Fatal("perturbed results accepted")
			}
		})
	}

	// Cross-engine tolerance admits rounding, not a different error.
	got := want()
	got[2].Path.Dist += 1e-9
	if err := sameResults(ops, want(), got, 1e-6); err != nil {
		t.Fatalf("1e-9 SPD difference rejected at tol 1e-6: %v", err)
	}
	got[3].Err = errors.New("some other failure")
	if err := sameResults(ops, want(), got, 1e-6); err == nil {
		t.Fatal("different SPD error accepted")
	}
}

// TestVerdictRule decides "delta <= 2" on synthetic paired samples: the
// same seeded noise on every before sample, after scaled by a known factor
// with noise of its own.
func TestVerdictRule(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	paired := func(scale, noise float64) delta {
		before, after := make([]float64, 200), make([]float64, 200)
		for i := range before {
			before[i] = 1000 * (1 + 0.02*rng.NormFloat64())
			after[i] = before[i] * scale * (1 + noise*rng.NormFloat64())
		}
		return pairedDelta(before, after)
	}
	for _, c := range []struct {
		name         string
		scale, noise float64
		want         string
	}{
		{"equal sides", 1, 0.01, pass},
		{"5% slower", 1.05, 0.01, fail},
		{"2% slower, interval straddles the limit", 1.02, 0.01, unresolved},
		{"equal sides, too noisy to decide", 1, 0.25, unresolved},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := paired(c.scale, c.noise)
			if !(d.lo <= d.pct && d.pct <= d.hi) {
				t.Fatalf("median %.3g outside its interval [%.3g, %.3g]", d.pct, d.lo, d.hi)
			}
			if got := atMost(d, 2); got != c.want {
				t.Errorf("delta %.3g [%.3g, %.3g] <= 2: %s, want %s", d.pct, d.lo, d.hi, got, c.want)
			}
		})
	}

	// The interval is a pure function of the samples.
	before := []float64{10, 11, 9, 10, 12, 10, 11}
	after := []float64{11, 12, 10, 10, 13, 11, 12}
	if a, b := pairedDelta(before, after), pairedDelta(before, after); a != b {
		t.Errorf("two bootstraps of the same samples differ: %v, %v", a, b)
	}
}

var spinSink float64

// spin is a side whose unit is iters dependent floating-point steps.
func spin(iters int) side {
	return side{1, func() {
		x := spinSink
		for i := 0; i < iters; i++ {
			x = x*0.999999 + 1
		}
		spinSink = x
	}}
}

// TestEstimatorLive times real loops with the estimator's own constants:
// an injected 5% delay must resolve as a failure of "<= 2%", and one loop
// timed against itself must never resolve as a failure, in each of three
// repeats.
func TestEstimatorLive(t *testing.T) {
	if testing.Short() {
		t.Skip("times real loops for a few seconds")
	}
	const iters = 20000
	for rep := 0; rep < 3; rep++ {
		tm := estimate(spin(iters), spin(iters*105/100))
		d := pairedDelta(tm[0].ns, tm[1].ns)
		t.Logf("repeat %d: 5%% delay: %.3g [%.3g, %.3g] over %d samples: %s", rep, d.pct, d.lo, d.hi, len(tm[0].ns), atMost(d, 2))
		if atMost(d, 2) != fail {
			t.Errorf("repeat %d: 5%% delay did not resolve as a failure of <= 2", rep)
		}
		same := spin(iters)
		tm = estimate(same, same)
		d = pairedDelta(tm[0].ns, tm[1].ns)
		t.Logf("repeat %d: one loop against itself: %.3g [%.3g, %.3g] over %d samples: %s", rep, d.pct, d.lo, d.hi, len(tm[0].ns), atMost(d, 2))
		if atMost(d, 2) == fail {
			t.Errorf("repeat %d: one loop against itself resolved as a failure of <= 2", rep)
		}
	}
}
