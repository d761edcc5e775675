package keyword_test

import (
	"context"
	"errors"
	"testing"

	"indoorsq/internal/idmodel"
	"indoorsq/internal/keyword"
	"indoorsq/internal/testspaces"
)

func TestKeywordCtxCancelled(t *testing.T) {
	f := testspaces.NewStrip()
	x := keyword.New(idmodel.New(f.Space), f.Space, tagged(f))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := x.BooleanKNN(ctx, p, 2, nil, "coffee"); !errors.Is(err, context.Canceled) {
		t.Fatalf("BooleanKNN(cancelled) = %v, want Canceled", err)
	}
	if _, err := x.BooleanRange(ctx, p, 12, nil, "coffee"); !errors.Is(err, context.Canceled) {
		t.Fatalf("BooleanRange(cancelled) = %v, want Canceled", err)
	}
	if _, err := x.Route(ctx, p, p, nil, "atm"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Route(cancelled) = %v, want Canceled", err)
	}
}
