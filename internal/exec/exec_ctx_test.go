package exec_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"indoorsq/internal/exec"
	"indoorsq/internal/query"
)

// TestValidateRejectsUpFront asserts invalid ops never reach the engine and
// are tallied as errors but not cancellations.
func TestValidateRejectsUpFront(t *testing.T) {
	eng, ops := testEngineAndOps()
	bad := append([]exec.Op{
		{Kind: exec.RangeQ, P: ops[0].P, R: math.NaN()},
		{Kind: exec.RangeQ, P: ops[0].P, R: -1},
		{Kind: exec.KNNQ, P: ops[0].P, K: 0},
		{Kind: exec.KNNQ, P: ops[0].P, K: -3},
	}, ops...)

	p := exec.Pool{Workers: 2}
	results, batch := p.Run(context.Background(), eng, bad)
	for i := 0; i < 4; i++ {
		if !errors.Is(results[i].Err, exec.ErrInvalidOp) {
			t.Errorf("op %d: err = %v, want exec.ErrInvalidOp", i, results[i].Err)
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
	if batch.Errs != 4 || batch.Cancelled != 0 {
		t.Fatalf("batch tallies = %d errs / %d cancelled, want 4 / 0", batch.Errs, batch.Cancelled)
	}
}

// TestRunCtxCancelledBatch asserts a pre-cancelled context interrupts every
// op and the tallies say so.
func TestRunCtxCancelledBatch(t *testing.T) {
	eng, ops := testEngineAndOps()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	p := exec.Pool{Workers: 4}
	results, batch := p.Run(ctx, eng, ops)
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("op %d: err = %v, want Canceled", i, r.Err)
		}
	}
	if batch.Errs != len(ops) || batch.Cancelled != len(ops) {
		t.Fatalf("batch tallies = %d errs / %d cancelled, want %d / %d",
			batch.Errs, batch.Cancelled, len(ops), len(ops))
	}
}

// TestRunCtxBudget asserts a WithBudget context bounds every op of a batch.
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
	p := exec.Pool{Workers: 2}
	results, batch := p.Run(ctx, eng, spds)
	exhausted := 0
	for _, r := range results {
		if errors.Is(r.Err, query.ErrBudgetExhausted) {
			exhausted++
		}
	}
	if exhausted == 0 {
		t.Fatal("no exec.SPDQ hit the one-door budget")
	}
	if batch.Cancelled != exhausted {
		t.Fatalf("batch.Cancelled = %d, want %d", batch.Cancelled, exhausted)
	}
}
