package indoor_test

import (
	"bytes"
	"math/rand"
	"testing"

	"indoorsq/internal/geom"
	"indoorsq/internal/indoor"
	"indoorsq/internal/snapshot"
	"indoorsq/internal/spacegen"
)

// hostRef is the sequential host scan written directly over Partitions():
// the first non-staircase partition on p's floor whose MBR and polygon
// contain p, else the first such staircase.
func hostRef(sp *indoor.Space, p indoor.Point) (indoor.PartitionID, bool) {
	host := indoor.NoPartition
	for i := range sp.Partitions() {
		v := &sp.Partitions()[i]
		if p.Floor < v.Floor || p.Floor > v.TopFloor || !v.MBR.Contains(p.XY()) || !v.Poly.Contains(p.XY()) {
			continue
		}
		if v.Kind != indoor.Staircase {
			return v.ID, true
		}
		if host == indoor.NoPartition {
			host = v.ID
		}
	}
	return host, host != indoor.NoPartition
}

// loadRoundTrip writes sp as a snapshot and loads it back.
func loadRoundTrip(t *testing.T, sp *indoor.Space) *indoor.Space {
	t.Helper()
	var buf bytes.Buffer
	w := snapshot.NewWriter(&buf, 0)
	sp.AppendTo(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := snapshot.NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	out, err := indoor.LoadSpace(r)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// hostProbes returns points around every partition on every floor it
// spans: its MBR centre, its vertices, and points on, just inside and just
// outside the middle of each wall; plus random points over the venue.
func hostProbes(sp *indoor.Space, rng *rand.Rand) []indoor.Point {
	var out []indoor.Point
	var box geom.Rect
	for i, v := range sp.Partitions() {
		if i == 0 {
			box = v.MBR
		}
		box = box.Union(v.MBR)
		for f := v.Floor; f <= v.TopFloor; f++ {
			c := v.MBR.Center()
			out = append(out, indoor.At(c.X, c.Y, f))
			for j, a := range v.Poly {
				out = append(out, indoor.At(a.X, a.Y, f))
				e := v.Poly.Edge(j)
				m := e.Mid()
				nx, ny := e.B.Y-e.A.Y, e.A.X-e.B.X
				l := e.Length()
				for _, d := range []float64{0, 1e-9, -1e-9, 2e-9, -2e-9, 1e-6, -1e-6, 0.05, -0.05} {
					out = append(out, indoor.At(m.X+d*nx/l, m.Y+d*ny/l, f))
				}
			}
		}
	}
	for range 2000 {
		x := box.MinX - 1 + rng.Float64()*(box.Width()+2)
		y := box.MinY - 1 + rng.Float64()*(box.Height()+2)
		out = append(out, indoor.At(x, y, int16(rng.Intn(sp.Floors+1))))
	}
	return out
}

// TestHostPartitionMatchesReferenceScan checks HostPartition's packed
// per-floor scan against hostRef on built and snapshot-loaded generated
// venues, at points on both floors of every staircase and next to every
// wall.
func TestHostPartitionMatchesReferenceScan(t *testing.T) {
	params := []spacegen.Params{
		{Floors: 2, Rows: 2, Cols: 3},
		{Floors: 3, Rows: 4, Cols: 5, ExtraDoors: 6, Hall: spacegen.HallL},
		{Floors: 2, Rows: 3, Cols: 4, ExtraDoors: 3, Imbalance: 0.3, Hall: spacegen.HallStraight},
	}
	for pi, prm := range params {
		built, err := spacegen.Generate(int64(pi+1), prm.Normalize())
		if err != nil {
			t.Fatal(err)
		}
		loaded := loadRoundTrip(t, built)
		probes := hostProbes(built, rand.New(rand.NewSource(int64(pi))))
		stairFloors, hits := 0, 0
		for _, p := range probes {
			want, wantOK := hostRef(built, p)
			if wantOK {
				hits++
				if v := built.Partition(want); v.Kind == indoor.Staircase && p.Floor == v.TopFloor && v.TopFloor != v.Floor {
					stairFloors++
				}
			}
			for name, sp := range map[string]*indoor.Space{"built": built, "loaded": loaded} {
				if got, ok := sp.HostPartition(p); got != want || ok != wantOK {
					t.Fatalf("%s venue %d: HostPartition(%v) = %d, %v; reference %d, %v", name, pi, p, got, ok, want, wantOK)
				}
			}
		}
		if stairFloors == 0 || hits < len(probes)/4 {
			t.Fatalf("venue %d: %d of %d probes hosted, %d on an upper staircase landing", pi, hits, len(probes), stairFloors)
		}
		t.Logf("venue %d: %d probes, %d hosted, %d on upper staircase landings", pi, len(probes), hits, stairFloors)
	}
}
