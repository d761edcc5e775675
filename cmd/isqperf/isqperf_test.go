package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
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
	// metric on each side only, one row per side, a bound that holds, one
	// that flips and one per side.
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
	}, Bounds: []bound{{"flips", 0, true}, {"holds", 0, true}, {"dropped", 1, false}}}}}))
	if err != nil {
		t.Fatal(err)
	}
	newRep, err := readReport(write("new.json", &report{Scenarios: []*scenario{{Name: "move", Rows: []row{
		{"a", map[string]float64{"ups": 250, "added": 3}},
		{"c", map[string]float64{"ups": 7}},
	}, Bounds: []bound{{"holds", 0, true}, {"flips", 2, false}, {"new", 0, true}}}}}))
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
		"bound move flips: pass -> FAIL",
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
