package moving_test

import (
	"slices"
	"testing"

	"indoorsq/internal/indoor"
	"indoorsq/internal/moving"
	"indoorsq/internal/spacegen"
	"indoorsq/internal/testspaces"
)

// TestStaircaseUpperFloorUpdate pins the floor rule of an update: a
// staircase spans Floor..TopFloor, HostPartition lists it on both floors,
// and a report on its upper landing is accepted like one on its lower
// landing, by Stream and Monitor alike. A floor above the staircase is
// still rejected.
func TestStaircaseUpperFloorUpdate(t *testing.T) {
	f := testspaces.NewTwoFloor()
	sp := f.Space
	stair := sp.Partition(f.Stair)
	if stair.Floor != 0 || stair.TopFloor != 1 {
		t.Fatalf("fixture staircase spans [%d,%d], want [0,1]", stair.Floor, stair.TopFloor)
	}
	landing := indoor.At(21, 5.5, 1)
	if v, ok := sp.HostPartition(landing); !ok || v != f.Stair {
		t.Fatalf("HostPartition(%v) = %d, %v; want the staircase %d", landing, v, ok, f.Stair)
	}
	want := []moving.Event{{Query: 1, Object: 7, Enter: true, T: 1}}
	u := moving.Update{ID: 7, Loc: landing, Part: f.Stair, T: 1}

	st := moving.NewStream(sp, moving.StreamOptions{})
	defer st.Close()
	mon := moving.NewMonitor(sp)
	if _, err := st.Register(1, indoor.At(21, 5, 1), 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := mon.Register(1, indoor.At(21, 5, 1), 1, 0); err != nil {
		t.Fatal(err)
	}
	got, err := st.Apply(u)
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("Stream.Apply(%v) = %v, %v; want %v", u, got, err, want)
	}
	got, err = mon.Apply(u)
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("Monitor.Apply(%v) = %v, %v; want %v", u, got, err, want)
	}
	if ids := st.Result(1); !slices.Equal(ids, []int32{7}) {
		t.Fatalf("Stream result %v, want [7]", ids)
	}

	// The lower landing is accepted too; it is a flight of stairs
	// (StairLength 5) away from monitor 1's point, so the object leaves.
	u = moving.Update{ID: 7, Loc: indoor.At(21, 5.5, 0), Part: f.Stair, T: 2}
	want = []moving.Event{{Query: 1, Object: 7, Enter: false, T: 2}}
	if got, err := st.Apply(u); err != nil || !slices.Equal(got, want) {
		t.Fatalf("Stream.Apply(%v) = %v, %v; want %v", u, got, err, want)
	}
	if got, err := mon.Apply(u); err != nil || !slices.Equal(got, want) {
		t.Fatalf("Monitor.Apply(%v) = %v, %v; want %v", u, got, err, want)
	}

	// A floor outside [Floor, TopFloor] is rejected by both.
	bad := moving.Update{ID: 8, Loc: indoor.At(21, 5.5, 2), Part: f.Stair, T: 3}
	if _, err := st.Apply(bad); err == nil {
		t.Fatalf("Stream accepted %v above the staircase", bad)
	}
	if _, err := mon.Apply(bad); err == nil {
		t.Fatalf("Monitor accepted %v above the staircase", bad)
	}
}

// TestStaircaseUpdatesOnGeneratedVenue applies a report at the centre of
// every staircase of a generated venue on each floor it spans, with the
// partition HostPartition names, as the HTTP ingest path does for reports
// without a partition.
func TestStaircaseUpdatesOnGeneratedVenue(t *testing.T) {
	sp, err := spacegen.Generate(1, spacegen.Params{Floors: 2, Rows: 2, Cols: 3}.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	st := moving.NewStream(sp, moving.StreamOptions{})
	defer st.Close()
	stairs := 0
	for _, v := range sp.Partitions() {
		if v.Kind != indoor.Staircase {
			continue
		}
		stairs++
		c := v.MBR.Center()
		for f := v.Floor; f <= v.TopFloor; f++ {
			p := indoor.At(c.X, c.Y, f)
			host, ok := sp.HostPartition(p)
			if !ok {
				t.Fatalf("staircase %d: HostPartition(%v) found nothing", v.ID, p)
			}
			u := moving.Update{ID: int32(v.ID), Loc: p, Part: host, T: float64(f)}
			if _, err := st.Apply(u); err != nil {
				t.Errorf("staircase %d floor %d: %v", v.ID, f, err)
			}
		}
	}
	if stairs == 0 {
		t.Fatal("venue has no staircase")
	}
}
