package workload_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

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

// TestSPDPairsNoPairBounded pins the miss bound: on the strip venue no door
// lies within 1.2·0.001 of any source, so every draw misses, and SPDPairs
// must give up with ErrNoPair under a context that never ends.
func TestSPDPairsNoPairBounded(t *testing.T) {
	g := workload.New(testspaces.NewStrip().Space, 3)
	done := make(chan error, 1)
	go func() {
		pairs, err := g.SPDPairs(context.Background(), 0.001, 4)
		if len(pairs) != 0 {
			err = fmt.Errorf("%d pairs, want 0 (last error %v)", len(pairs), err)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, workload.ErrNoPair) {
			t.Fatalf("SPDPairs(strip, s2t 0.001) = %v, want ErrNoPair", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("SPDPairs(strip, s2t 0.001) did not return within 30 s")
	}
}
