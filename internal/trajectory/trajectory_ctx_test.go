package trajectory_test

import (
	"context"
	"errors"
	"testing"
)

func TestJoinCtxCancelled(t *testing.T) {
	l := demoLog(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := l.Join(ctx, 0, 30); !errors.Is(err, context.Canceled) {
		t.Fatalf("Join(cancelled) = %v, want Canceled", err)
	}
}

// TestJoinCtxMatchesJoin asserts a live (cancellable, never cancelled)
// context, whose Done channel the pair scan polls, returns the same pairs
// as the background context.
func TestJoinCtxMatchesJoin(t *testing.T) {
	l := demoLog(t)
	want, err := l.Join(context.Background(), 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := l.Join(ctx, 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("Join(live ctx) = %v, Join(background) = %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Join(live ctx)[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
