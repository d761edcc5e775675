package query_test

import (
	"context"
	"errors"
	"testing"

	"indoorsq/internal/idindex"
	"indoorsq/internal/idmodel"
	"indoorsq/internal/query"
	"indoorsq/internal/spacegen"
)

// TestIDSetReleasedOnInterruptedRange interrupts range queries (a one-door
// budget, a cancelled context) and checks each hands its IDSet back to the
// pool on the early return. The pool is drained first and the sets this
// test takes are never released, so a pooled set (epoch > 1) coming out of
// NewIDSet can only be one an interrupted Range released.
func TestIDSetReleasedOnInterruptedRange(t *testing.T) {
	sp, err := spacegen.Generate(5, spacegen.Params{Floors: 1, Rows: 2, Cols: 4, ExtraDoors: 3}.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	objs := spacegen.Objects(sp, 6, 40)
	p := objs[0].Loc
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	interrupts := map[string]func() context.Context{
		"budget": func() context.Context {
			return query.WithBudget(context.Background(), query.Budget{MaxVisitedDoors: 1})
		},
		"ctx": func() context.Context { return cancelled },
	}
	engines := []query.Engine{idmodel.New(sp), idindex.New(sp)}
	var held []*query.IDSet // never released, so they cannot refill the pool
	for _, e := range engines {
		e.SetObjects(objs)
		for name, ctx := range interrupts {
			for range 100 { // drain: stop at the first fresh set
				s := query.NewIDSet(len(objs))
				held = append(held, s)
				if query.IDSetEpoch(s) == 1 {
					break
				}
			}
			reused := 0
			for range 20 {
				st := query.Track(ctx(), &query.Stats{})
				if _, err := e.Range(p, 1e9, st); err == nil {
					t.Fatalf("%s %s: Range was not interrupted", e.Name(), name)
				} else if !errors.Is(err, query.ErrBudgetExhausted) && !errors.Is(err, context.Canceled) {
					t.Fatalf("%s %s: Range err = %v", e.Name(), name, err)
				}
				s := query.NewIDSet(len(objs))
				held = append(held, s)
				if query.IDSetEpoch(s) > 1 {
					reused++
				}
			}
			if reused == 0 {
				t.Errorf("%s %s: no interrupted Range returned its IDSet to the pool", e.Name(), name)
			}
		}
	}
}
