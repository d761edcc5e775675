package server

import (
	"context"
	"fmt"
	"net/http"
	"testing"

	"indoorsq/internal/exec"
	"indoorsq/internal/moving"
	"indoorsq/internal/query"
	"indoorsq/internal/tenant"
)

// TestStatusOf pins the error table: every sentinel maps to its status
// both bare and wrapped with %w, and anything else is a 500.
func TestStatusOf(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{tenant.ErrUnknownEngine, http.StatusNotFound},
		{errNotFound, http.StatusNotFound},
		{exec.ErrInvalidOp, http.StatusBadRequest},
		{errBadRequest, http.StatusBadRequest},
		{errTooLarge, http.StatusRequestEntityTooLarge},
		{errRefused, http.StatusUnprocessableEntity},
		{query.ErrNoHost, http.StatusUnprocessableEntity},
		{query.ErrUnreachable, http.StatusUnprocessableEntity},
		{query.ErrBudgetExhausted, http.StatusUnprocessableEntity},
		{moving.ErrNotIndoors, http.StatusUnprocessableEntity},
		{moving.ErrDuplicateQuery, http.StatusConflict},
		{moving.ErrStreamClosed, http.StatusConflict},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{context.Canceled, StatusClientClosedRequest},
		{fmt.Errorf("disk on fire"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := statusOf(c.err); got != c.want {
			t.Errorf("statusOf(%v) = %d, want %d", c.err, got, c.want)
		}
		wrapped := fmt.Errorf("layer: %w", c.err)
		if got := statusOf(wrapped); got != c.want {
			t.Errorf("statusOf(%v) = %d, want %d", wrapped, got, c.want)
		}
	}
	// An interrupted query that also ran out of budget is the budget's 422,
	// as before the table existed.
	both := fmt.Errorf("%w: %w", query.ErrBudgetExhausted, context.DeadlineExceeded)
	if got := statusOf(both); got != http.StatusUnprocessableEntity {
		t.Errorf("budget+deadline = %d, want 422", got)
	}
}
