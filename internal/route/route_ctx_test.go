package route_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"indoorsq/internal/indoor"
	"indoorsq/internal/query"
	"indoorsq/internal/testspaces"
)

func TestRouteCtxCancelled(t *testing.T) {
	f := testspaces.NewStrip()
	pl := planner(t, f)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	p := indoor.At(2.5, 8, 0)
	w := []indoor.Point{indoor.At(7.5, 9, 0)}
	q := indoor.At(12.5, 9, 0)
	if _, err := pl.Via(ctx, p, w, q, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Via(cancelled) = %v, want Canceled", err)
	}
	if _, _, err := pl.Optimized(ctx, p, w, q, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Optimized(cancelled) = %v, want Canceled", err)
	}
}

func TestRouteCtxBackgroundEquivalence(t *testing.T) {
	f := testspaces.NewStrip()
	pl := planner(t, f)
	var st query.Stats
	p := indoor.At(2.5, 8, 0)
	w := []indoor.Point{indoor.At(7.5, 9, 0)}
	q := indoor.At(12.5, 9, 0)
	walk, err := pl.Via(context.Background(), p, w, q, &st)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(walk.Dist-21) > 1e-9 {
		t.Fatalf("Via dist = %g, want 21", walk.Dist)
	}
}
