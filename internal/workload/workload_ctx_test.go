package workload_test

import (
	"context"
	"errors"
	"testing"

	"indoorsq/internal/testspaces"
	"indoorsq/internal/workload"
)

func TestSPDPairsCtxCancelled(t *testing.T) {
	sp := testspaces.RandomGrid(5, 4, 4, 2, 6, 0.2)
	g := workload.New(sp, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pairs, err := g.SPDPairs(ctx, 40, 8)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SPDPairs(cancelled) = %v, want Canceled", err)
	}
	if len(pairs) != 0 {
		t.Fatalf("pre-cancelled generation produced %d pairs", len(pairs))
	}
}

func TestSPDPairsCtxBackgroundEquivalence(t *testing.T) {
	sp := testspaces.RandomGrid(5, 4, 4, 2, 6, 0.2)
	g := workload.New(sp, 3)
	pairs, err := g.SPDPairs(context.Background(), 40, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 4 {
		t.Fatalf("SPDPairs produced %d pairs, want 4", len(pairs))
	}
}
