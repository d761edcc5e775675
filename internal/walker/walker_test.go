package walker_test

import (
	"context"
	"testing"

	"indoorsq/internal/idindex"
	"indoorsq/internal/indoor"
	"indoorsq/internal/moving"
	"indoorsq/internal/testspaces"
	"indoorsq/internal/trajectory"
	"indoorsq/internal/walker"
)

func newSim(t *testing.T, agents int, speed float64, seed int64) (*walker.Sim, *indoor.Space) {
	t.Helper()
	sp := testspaces.RandomGrid(3, 4, 5, 2, 8, 0)
	eng := idindex.New(sp)
	eng.SetObjects(nil)
	sim, err := walker.New(sp, eng, agents, speed, seed)
	if err != nil {
		t.Fatal(err)
	}
	return sim, sp
}

func TestSamplesStayIndoors(t *testing.T) {
	sim, sp := newSim(t, 10, 1.4, 7)
	for step := 0; step < 100; step++ {
		samples, err := sim.Step(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(samples) != 10 {
			t.Fatalf("step %d: %d samples", step, len(samples))
		}
		for _, smp := range samples {
			host, ok := sp.HostPartition(smp.Loc)
			if !ok {
				t.Fatalf("sample %v outside the space", smp)
			}
			// The reported partition must contain the location (staircases
			// may be reported as either endpoint's partition).
			if host != smp.Part && sp.Partition(smp.Part).Kind != indoor.Staircase {
				if !sp.Partition(smp.Part).Poly.Contains(smp.Loc.XY()) {
					t.Fatalf("sample %v reports partition %d not containing it", smp, smp.Part)
				}
			}
		}
	}
}

func TestSpeedBoundsDisplacement(t *testing.T) {
	sim, _ := newSim(t, 5, 2.0, 11)
	prev := map[int32]indoor.Point{}
	for step := 0; step < 50; step++ {
		samples, err := sim.Step(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, smp := range samples {
			if p, ok := prev[smp.ID]; ok && p.Floor == smp.Loc.Floor {
				// Straight-line displacement cannot exceed distance walked
				// except when a new walk teleports nothing (it never does:
				// new walks start at the current position).
				if d := p.XY().Dist(smp.Loc.XY()); d > 2.0+1e-6 {
					t.Fatalf("agent %d jumped %gm in one second", smp.ID, d)
				}
			}
			prev[smp.ID] = smp.Loc
		}
	}
}

func TestAgentsActuallyMove(t *testing.T) {
	sim, _ := newSim(t, 3, 1.4, 5)
	first, err := sim.Step(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	moved := false
	for step := 0; step < 30 && !moved; step++ {
		samples, err := sim.Step(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, smp := range samples {
			if smp.Loc != first[i].Loc {
				moved = true
			}
		}
	}
	if !moved {
		t.Fatal("no agent moved in 30 seconds")
	}
	if sim.Now() <= 0 {
		t.Fatalf("clock = %g", sim.Now())
	}
}

func TestDeterministicBySeed(t *testing.T) {
	simA, _ := newSim(t, 4, 1.4, 42)
	simB, _ := newSim(t, 4, 1.4, 42)
	for step := 0; step < 20; step++ {
		a, err1 := simA.Step(context.Background(), 1)
		b, err2 := simB.Step(context.Background(), 1)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("step %d diverged: %v vs %v", step, a[i], b[i])
			}
		}
	}
}

// TestFeedsDownstream pipes walker samples into the continuous monitor and
// the trajectory log.
func TestFeedsDownstream(t *testing.T) {
	sim, sp := newSim(t, 8, 3.0, 13)
	mon := moving.NewMonitor(sp)
	if _, err := mon.Register(1, indoor.At(25, 5, 0), 30, 0); err != nil {
		t.Fatal(err)
	}
	var updates []trajectory.PositionUpdate
	events := 0
	for step := 0; step < 200; step++ {
		samples, err := sim.Step(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, smp := range samples {
			evs, err := mon.Apply(moving.Update{ID: smp.ID, Loc: smp.Loc, Part: smp.Part, T: smp.T})
			if err != nil {
				t.Fatal(err)
			}
			events += len(evs)
			updates = append(updates, trajectory.PositionUpdate{Obj: smp.ID, Part: smp.Part, T: smp.T})
		}
	}
	if events == 0 {
		t.Fatal("200s of walking triggered no geofence events")
	}
	log, err := trajectory.FromUpdates(updates, 1)
	if err != nil {
		t.Fatal(err)
	}
	if log.Len() < 8 {
		t.Fatalf("trajectory log has only %d stays", log.Len())
	}
	if top := log.TopVisited(0, 1e9, 3); len(top) == 0 || top[0].Visits < 2 {
		t.Fatalf("TopVisited = %v", top)
	}
}

func TestNewValidation(t *testing.T) {
	sp := testspaces.NewStrip().Space
	eng := idindex.New(sp)
	if _, err := walker.New(sp, eng, 0, 1, 1); err == nil {
		t.Fatal("zero agents must fail")
	}
	if _, err := walker.New(sp, eng, 1, 0, 1); err == nil {
		t.Fatal("zero speed must fail")
	}
}
