package walker_test

import (
	"context"
	"errors"
	"testing"
)

func TestStepCtxCancelled(t *testing.T) {
	sim, _ := newSim(t, 5, 1.4, 11)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sim.Step(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("Step(cancelled) = %v, want Canceled", err)
	}
	// The sim stays usable after an interrupted tick.
	samples, err := sim.Step(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5 {
		t.Fatalf("recovered step: %d samples, want 5", len(samples))
	}
}
