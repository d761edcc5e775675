package uncertain_test

import (
	"context"
	"errors"
	"testing"

	"indoorsq/internal/indoor"
	"indoorsq/internal/testspaces"
	"indoorsq/internal/uncertain"
)

func TestUncertainCtxCancelled(t *testing.T) {
	f := testspaces.NewStrip()
	x := newIndex(f, []uncertain.Object{
		{ID: 1, Center: indoor.At(2.5, 9, 0), Radius: 0, Part: f.R1},
	}, 13)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	p := indoor.At(2.5, 8, 0)
	if _, err := x.ProbRange(ctx, p, 1.5, 0.5); !errors.Is(err, context.Canceled) {
		t.Fatalf("ProbRange(cancelled) = %v, want Canceled", err)
	}
	if _, err := x.ExpectedKNN(ctx, p, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExpectedKNN(cancelled) = %v, want Canceled", err)
	}
}

func TestUncertainCtxBackgroundEquivalence(t *testing.T) {
	f := testspaces.NewStrip()
	x := newIndex(f, []uncertain.Object{
		{ID: 1, Center: indoor.At(2.5, 9, 0), Radius: 0, Part: f.R1},
	}, 13)
	p := indoor.At(2.5, 8, 0)
	res, err := x.ProbRange(context.Background(), p, 1.5, 0.5)
	if err != nil || len(res) != 1 || res[0].ID != 1 || res[0].Value != 1 {
		t.Fatalf("ProbRange = %v, %v", res, err)
	}
}
