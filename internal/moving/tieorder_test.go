package moving_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"indoorsq/internal/indoor"
	"indoorsq/internal/moving"
	"indoorsq/internal/testspaces"
	"indoorsq/internal/workload"
)

// streamConfigs are the shard counts the tie tests replay under.
var streamConfigs = []moving.StreamOptions{{Shards: 1}, {Shards: 3}, {Shards: 8}}

// TestTiedTimestampEvents pins the order ApplyBatch emits events in when
// timestamps tie: events sort by (T, query, object), and events equal on
// all three keep the order their monitor folded them in, which is batch
// order. The expected events were recorded from the stable-sort
// implementation before the sort changed.
func TestTiedTimestampEvents(t *testing.T) {
	f := newOneWaySpace(t)
	at, ev := oneWayAt, tieEv
	batches := [][]moving.Update{
		// Object 1 enters range monitor 1 and leaves it again at T=1.
		{at(1, 2.5, 8, f.a, 1), at(1, 14, 5, f.h, 1)},
		// Objects 3 and 2 enter monitor 1 at the same T.
		{at(3, 2, 8.5, f.a, 2), at(2, 3, 8, f.a, 2)},
		// At T=3 object 4 takes kNN monitor 2's one slot from object 1,
		// object 1 takes it back, and object 2 leaves monitor 1.
		{at(4, 12.5, 7.5, f.c, 3), at(2, 1, 5, f.h, 3), at(1, 12.5, 8, f.c, 3)},
		// At T=4 object 5 enters and leaves monitor 1 while object 3 leaves.
		{at(5, 2.5, 7, f.a, 4), at(3, 7, 5, f.h, 4), at(5, 7.5, 8, f.b, 4)},
	}
	want := [][]moving.Event{
		{ev(1, 1, true, 1), ev(1, 1, false, 1), ev(2, 1, true, 1)},
		{ev(1, 2, true, 2), ev(1, 3, true, 2)},
		{ev(1, 2, false, 3), ev(2, 1, false, 3), ev(2, 1, true, 3), ev(2, 4, true, 3), ev(2, 4, false, 3)},
		{ev(1, 3, false, 4), ev(1, 5, true, 4), ev(1, 5, false, 4)},
	}
	replayOneWay(t, f, batches, want)
}

// replayOneWay registers range monitor 1 (r = 3 in room A) and kNN monitor
// 2 (k = 1 in room C) on the one-way venue, then applies batches under
// every shard count, requiring each batch to emit want[i] exactly. With
// workers=W, W goroutines replay the batches at once, each on its own
// stream over the shared space, and every one must emit want.
func replayOneWay(t *testing.T, f *oneWaySpace, batches [][]moving.Update, want [][]moving.Event) {
	t.Helper()
	for _, opt := range streamConfigs {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", opt.Shards, workers), func(t *testing.T) {
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						replayOneWayStream(t, f, opt, batches, want)
					}()
				}
				wg.Wait()
			})
		}
	}
}

// replayOneWayStream is one replay of replayOneWay on a fresh stream. It
// reports failures with t.Errorf, so it may run off the test goroutine.
func replayOneWayStream(t *testing.T, f *oneWaySpace, opt moving.StreamOptions, batches [][]moving.Update, want [][]moving.Event) {
	st := moving.NewStream(f.sp, opt)
	defer st.Close()
	if _, err := st.Register(1, indoor.At(2.5, 8, 0), 3, 0); err != nil {
		t.Error(err)
		return
	}
	if _, err := st.RegisterKNN(2, indoor.At(12.5, 8.5, 0), 1, 0); err != nil {
		t.Error(err)
		return
	}
	for i, b := range batches {
		got, err := st.ApplyBatch(b)
		if err != nil {
			t.Error(err)
			return
		}
		if !slices.Equal(got, want[i]) {
			t.Errorf("batch %d:\n got %v\nwant %v", i, got, want[i])
			return
		}
	}
}

// oneWayAt is an update of object id at (x, y) on floor 0 of partition v.
func oneWayAt(id int32, x, y float64, v indoor.PartitionID, t float64) moving.Update {
	return moving.Update{ID: id, Loc: indoor.At(x, y, 0), Part: v, T: t}
}

// tieEv is the event of object o entering or leaving monitor q at t.
func tieEv(q, o int32, enter bool, t float64) moving.Event {
	return moving.Event{Query: q, Object: o, Enter: enter, T: t}
}

// TestDecreasingTimestampEvents applies batches whose timestamps fall
// along the batch: the events still come out sorted by (T, query, object),
// not in the order their updates were applied.
func TestDecreasingTimestampEvents(t *testing.T) {
	f := newOneWaySpace(t)
	at, ev := oneWayAt, tieEv
	batches := [][]moving.Update{
		// Objects 1, 2 and 3 enter monitor 1 at T=5, 4, 3; object 1 also
		// takes kNN monitor 2's slot.
		{at(1, 2.5, 8, f.a, 5), at(2, 3, 8, f.a, 4), at(3, 2, 8.5, f.a, 3)},
		// Object 1 leaves monitor 1 at T=9 and object 3 at T=8.
		{at(1, 14, 5, f.h, 9), at(3, 7, 5, f.h, 8)},
	}
	want := [][]moving.Event{
		{ev(1, 3, true, 3), ev(1, 2, true, 4), ev(1, 1, true, 5), ev(2, 1, true, 5)},
		{ev(1, 3, false, 8), ev(1, 1, false, 9)},
	}
	replayOneWay(t, f, batches, want)
}

// TestMixedTiedDecreasingEvents mixes tied and falling timestamps in one
// batch, with one object entering and leaving monitor 1 at one T: events
// sort by (T, query, object), and the tied enter and leave keep their
// batch order.
func TestMixedTiedDecreasingEvents(t *testing.T) {
	f := newOneWaySpace(t)
	at, ev := oneWayAt, tieEv
	batches := [][]moving.Update{
		// Object 4 enters and leaves monitor 1 at T=6 and takes kNN
		// monitor 2's slot, object 5 enters at T=7 and leaves at T=5 (into
		// the one-way room B), and object 6 enters at T=5.
		{at(4, 2.5, 7, f.a, 6), at(5, 2, 8, f.a, 7), at(4, 14, 5, f.h, 6), at(6, 3, 8.5, f.a, 5), at(5, 7.5, 8, f.b, 5)},
		// At T=2 object 6 leaves monitor 1 and object 7 enters it; at T=1
		// object 4 walks into B, handing monitor 2's slot to object 6.
		{at(6, 1, 5, f.h, 2), at(7, 2.5, 8.5, f.a, 2), at(4, 7.5, 8, f.b, 1)},
	}
	want := [][]moving.Event{
		{ev(1, 5, false, 5), ev(1, 6, true, 5), ev(1, 4, true, 6), ev(1, 4, false, 6), ev(2, 4, true, 6), ev(1, 5, true, 7)},
		{ev(2, 4, false, 1), ev(2, 6, true, 1), ev(1, 6, false, 2), ev(1, 7, true, 2)},
	}
	replayOneWay(t, f, batches, want)
}

// TestKNNSwapLowerIDEvents has one update make a kNN monitor drop object 9
// for object 2: the monitor folds the leave before the enter, and the
// returned events put the lower object id first.
func TestKNNSwapLowerIDEvents(t *testing.T) {
	f := newOneWaySpace(t)
	at, ev := oneWayAt, tieEv
	batches := [][]moving.Update{
		// Object 9 takes monitor 2's slot; object 2 stays farther.
		{at(9, 12.5, 7.5, f.c, 1), at(2, 14, 5, f.h, 1)},
		// Object 9 walks to the far end of the hallway, behind object 2.
		{at(9, 1, 5, f.h, 2)},
	}
	want := [][]moving.Event{
		{ev(2, 9, true, 1)},
		{ev(2, 2, true, 2), ev(2, 9, false, 2)},
	}
	replayOneWay(t, f, batches, want)
}

// TestTiedTimestampsAnyShards replays random batches whose timestamps tie
// heavily (a handful of objects, three timestamps per batch, objects
// repeated within a batch) against range monitors, and requires every
// shard count to emit the same events batch by batch.
func TestTiedTimestampsAnyShards(t *testing.T) {
	sp := testspaces.RandomGrid(17, 3, 4, 2, 3, 0.2)
	gen := workload.New(sp, 5)
	type mon struct {
		p indoor.Point
		r float64
	}
	mons := make([]mon, 24)
	for i := range mons {
		p, _ := gen.PointIn()
		mons[i] = mon{p, 5 + float64(i%4)*4}
	}
	rng := rand.New(rand.NewSource(9))
	var batches [][]moving.Update
	for b := 0; b < 60; b++ {
		batch := make([]moving.Update, 1+rng.Intn(40))
		for i := range batch {
			p, v := gen.PointIn()
			batch[i] = moving.Update{ID: int32(rng.Intn(12)), Loc: p, Part: v, T: float64(b*3 + rng.Intn(3))}
		}
		batches = append(batches, batch)
	}
	var ref [][]moving.Event
	for _, opt := range streamConfigs {
		st := moving.NewStream(sp, opt)
		for i, m := range mons {
			if _, err := st.Register(int32(i), m.p, m.r, 0); err != nil {
				t.Fatal(err)
			}
		}
		var got [][]moving.Event
		n := 0
		for _, b := range batches {
			evs, err := st.ApplyBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, evs)
			n += len(evs)
		}
		st.Close()
		if ref == nil {
			if n < 100 {
				t.Fatalf("only %d events: the batches exercise too little", n)
			}
			ref = got
			continue
		}
		for i := range ref {
			if !slices.Equal(got[i], ref[i]) {
				t.Fatalf("shards=%d batch %d:\n got %v\nwant %v", opt.Shards, i, got[i], ref[i])
			}
		}
	}
}
