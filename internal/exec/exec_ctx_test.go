package exec_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"indoorsq/internal/exec"
	"indoorsq/internal/query"
)

// TestValidateRejectsUpFront asserts invalid ops fail with ErrInvalidOp
// before they reach the engine, while the valid ops beside them run.
func TestValidateRejectsUpFront(t *testing.T) {
	eng, ops := testEngineAndOps()
	bad := append([]exec.Op{
		{Kind: exec.RangeQ, P: ops[0].P, R: math.NaN()},
		{Kind: exec.RangeQ, P: ops[0].P, R: -1},
		{Kind: exec.KNNQ, P: ops[0].P, K: 0},
		{Kind: exec.KNNQ, P: ops[0].P, K: -3},
	}, ops...)

	setProcs(t, 2)
	results, _ := runOps(context.Background(), eng, bad)
	for i := 0; i < 4; i++ {
		if !errors.Is(results[i].Err, exec.ErrInvalidOp) {
			t.Errorf("op %d: err = %v, want exec.ErrInvalidOp", i, results[i].Err)
		}
		if err := exec.Validate(bad[i]); !errors.Is(err, exec.ErrInvalidOp) {
			t.Errorf("op %d: Validate = %v, want exec.ErrInvalidOp", i, err)
		}
		if results[i].Stats != (query.Stats{}) {
			t.Errorf("op %d: engine work was spent on an invalid op: %+v", i, results[i].Stats)
		}
	}
	for i := 4; i < len(bad); i++ {
		if results[i].Err != nil {
			t.Errorf("op %d: valid op failed: %v", i, results[i].Err)
		}
	}
}

// TestRunCtxCancelledBatch asserts a pre-cancelled context interrupts
// every op it is passed to.
func TestRunCtxCancelledBatch(t *testing.T) {
	eng, ops := testEngineAndOps()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	setProcs(t, 4)
	results, _ := runOps(ctx, eng, ops)
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("op %d: err = %v, want Canceled", i, r.Err)
		}
	}
}

// TestRunCtxBudget asserts a WithBudget context bounds every op it is
// passed to: the ops that fail, fail on the budget.
func TestRunCtxBudget(t *testing.T) {
	eng, ops := testEngineAndOps()
	// Keep only cross-partition SPDQs, which must expand doors.
	var spds []exec.Op
	for _, op := range ops {
		if op.Kind == exec.SPDQ {
			spds = append(spds, op)
		}
	}
	ctx := query.WithBudget(context.Background(), query.Budget{MaxVisitedDoors: 1})
	setProcs(t, 2)
	results, _ := runOps(ctx, eng, spds)
	exhausted := 0
	for i, r := range results {
		switch {
		case errors.Is(r.Err, query.ErrBudgetExhausted):
			exhausted++
		case r.Err != nil:
			t.Fatalf("op %d: err = %v, want nil or ErrBudgetExhausted", i, r.Err)
		}
	}
	if exhausted == 0 {
		t.Fatal("no exec.SPDQ hit the one-door budget")
	}
}
