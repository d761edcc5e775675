package moving_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"indoorsq/internal/indoor"
	"indoorsq/internal/moving"
	"indoorsq/internal/testspaces"
	"indoorsq/internal/workload"
)

// streamConfigs are the shard × worker counts the tie tests replay under.
var streamConfigs = []moving.StreamOptions{
	{Shards: 1, Workers: 1}, {Shards: 1, Workers: 4},
	{Shards: 3, Workers: 1}, {Shards: 3, Workers: 4},
	{Shards: 8, Workers: 1}, {Shards: 8, Workers: 4},
}

// TestTiedTimestampEvents pins the order ApplyBatch emits events in when
// timestamps tie: events sort by (T, query, object), and events equal on
// all three keep the order their monitor folded them in, which is batch
// order. The expected events were recorded from the stable-sort
// implementation before the sort changed.
func TestTiedTimestampEvents(t *testing.T) {
	f := newOneWaySpace(t)
	at := func(id int32, x, y float64, v indoor.PartitionID, t float64) moving.Update {
		return moving.Update{ID: id, Loc: indoor.At(x, y, 0), Part: v, T: t}
	}
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
	ev := func(q, o int32, enter bool, t float64) moving.Event {
		return moving.Event{Query: q, Object: o, Enter: enter, T: t}
	}
	want := [][]moving.Event{
		{ev(1, 1, true, 1), ev(1, 1, false, 1), ev(2, 1, true, 1)},
		{ev(1, 2, true, 2), ev(1, 3, true, 2)},
		{ev(1, 2, false, 3), ev(2, 1, false, 3), ev(2, 1, true, 3), ev(2, 4, true, 3), ev(2, 4, false, 3)},
		{ev(1, 3, false, 4), ev(1, 5, true, 4), ev(1, 5, false, 4)},
	}
	for _, opt := range streamConfigs {
		t.Run(fmt.Sprintf("shards=%d/workers=%d", opt.Shards, opt.Workers), func(t *testing.T) {
			st := moving.NewStream(f.sp, opt)
			defer st.Close()
			if _, err := st.Register(1, indoor.At(2.5, 8, 0), 3, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := st.RegisterKNN(2, indoor.At(12.5, 8.5, 0), 1, 0); err != nil {
				t.Fatal(err)
			}
			for i, b := range batches {
				got, err := st.ApplyBatch(b)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want[i]) {
					t.Fatalf("batch %d:\n got %v\nwant %v", i, got, want[i])
				}
			}
		})
	}
}

// TestTiedTimestampsAnyShardsWorkers replays random batches whose
// timestamps tie heavily (a handful of objects, three timestamps per
// batch, objects repeated within a batch) against range monitors, and
// requires every shard × worker count to emit the same events batch by
// batch.
func TestTiedTimestampsAnyShardsWorkers(t *testing.T) {
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
				t.Fatalf("shards=%d workers=%d batch %d:\n got %v\nwant %v", opt.Shards, opt.Workers, i, got[i], ref[i])
			}
		}
	}
}
