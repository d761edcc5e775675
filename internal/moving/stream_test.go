package moving_test

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"indoorsq/internal/indoor"
	"indoorsq/internal/moving"
	"indoorsq/internal/oracle"
	"indoorsq/internal/query"
	"indoorsq/internal/spacegen"
	"indoorsq/internal/testspaces"
	"indoorsq/internal/workload"
)

// canonEvents sorts a copy of evs by the Stream's merge key (T, query,
// object) — the canonical order both the serial and the sharded paths are
// compared in. The key is total for streams with strictly increasing
// timestamps, so equality here is equality of event sequences.
func canonEvents(evs []moving.Event) []moving.Event {
	out := append([]moving.Event(nil), evs...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].T != out[j].T {
			return out[i].T < out[j].T
		}
		if out[i].Query != out[j].Query {
			return out[i].Query < out[j].Query
		}
		return out[i].Object < out[j].Object
	})
	return out
}

func diffEvents(t *testing.T, label string, got, want []moving.Event) {
	t.Helper()
	g, w := canonEvents(got), canonEvents(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d events, want %d\ngot  %v\nwant %v", label, len(g), len(w), g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: event %d = %+v, want %+v", label, i, g[i], w[i])
		}
	}
}

func toUpdates(ms []spacegen.Motion) []moving.Update {
	out := make([]moving.Update, len(ms))
	for i, m := range ms {
		out[i] = moving.Update{ID: m.ID, Loc: m.Loc, Part: m.Part, T: m.T}
	}
	return out
}

// TestStreamMatchesMonitor is the core equivalence gate of the sharded
// path: the same motion stream applied to the scan-all Monitor one update
// at a time and to a multi-shard multi-worker Stream in batches must yield
// bit-identical event streams and result sets — registrations, moves,
// partition crossings, and removals included.
func TestStreamMatchesMonitor(t *testing.T) {
	t.Parallel()
	sp, err := spacegen.Generate(11, spacegen.Params{
		Floors: 2, Rows: 3, Cols: 4, ExtraDoors: 3, OneWayFrac: 0.2,
	}.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	mon := moving.NewMonitor(sp)
	st := moving.NewStream(sp, moving.StreamOptions{Shards: 4, Workers: 4})
	gen := workload.New(sp, 77)

	var monEvents, stEvents []moving.Event
	for qid := int32(1); qid <= 8; qid++ {
		p, _ := gen.PointIn()
		r := 8 + float64(qid)
		me, err := mon.Register(qid, p, r, 0)
		if err != nil {
			t.Fatalf("monitor register %d: %v", qid, err)
		}
		se, err := st.Register(qid, p, r, 0)
		if err != nil {
			t.Fatalf("stream register %d: %v", qid, err)
		}
		diffEvents(t, fmt.Sprintf("register %d", qid), se, me)
		monEvents = append(monEvents, me...)
		stEvents = append(stEvents, se...)
	}

	ms := spacegen.MotionStream(sp, 13, 40, 1200, 1, 0.25, 0.3)
	us := toUpdates(ms)
	const batch = 64
	for lo := 0; lo < len(us); lo += batch {
		hi := lo + batch
		if hi > len(us) {
			hi = len(us)
		}
		for _, u := range us[lo:hi] {
			evs, err := mon.Apply(u)
			if err != nil {
				t.Fatalf("monitor apply: %v", err)
			}
			monEvents = append(monEvents, evs...)
		}
		evs, err := st.ApplyBatch(us[lo:hi])
		if err != nil {
			t.Fatalf("stream batch [%d,%d): %v", lo, hi, err)
		}
		stEvents = append(stEvents, evs...)

		// Interleave a removal between batches; T keeps increasing.
		if lo/batch%5 == 4 {
			id := us[lo].ID
			rt := us[hi-1].T + 0.5
			monEvents = append(monEvents, mon.Remove(id, rt)...)
			stEvents = append(stEvents, st.Remove(id, rt)...)
		}

		for qid := int32(1); qid <= 8; qid++ {
			mr, sr := mon.Result(qid), st.Result(qid)
			if len(mr) != len(sr) {
				t.Fatalf("batch %d query %d: stream result %v, monitor %v", lo/batch, qid, sr, mr)
			}
			for i := range mr {
				if mr[i] != sr[i] {
					t.Fatalf("batch %d query %d: stream result %v, monitor %v", lo/batch, qid, sr, mr)
				}
			}
		}
	}
	diffEvents(t, "full stream", stEvents, monEvents)
	if st.NumQueries() != 8 || st.NumObjects() == 0 {
		t.Fatalf("queries=%d objects=%d", st.NumQueries(), st.NumObjects())
	}
}

// TestStreamKNNVsOracle maintains standing kNN monitors through a motion
// stream and checks, after every batch, that each monitor's incrementally
// maintained top-k equals the oracle's from-scratch kNN over the same
// object set — ids and distances both.
func TestStreamKNNVsOracle(t *testing.T) {
	t.Parallel()
	sp, err := spacegen.Generate(21, spacegen.Params{
		Floors: 1, Rows: 3, Cols: 4, ExtraDoors: 2,
	}.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	st := moving.NewStream(sp, moving.StreamOptions{Shards: 4, Workers: 2})
	ora := oracle.New(sp)
	gen := workload.New(sp, 5)

	type qdef struct {
		qid int32
		p   indoor.Point
		k   int
	}
	var qs []qdef
	for i := 0; i < 4; i++ {
		p, _ := gen.PointIn()
		qs = append(qs, qdef{qid: int32(100 + i), p: p, k: 1 + i})
	}

	ms := spacegen.MotionStream(sp, 31, 25, 600, 1, 0.25, 0.3)
	us := toUpdates(ms)
	cur := map[int32]moving.Update{}

	// Seed half the objects, then register, then stream the rest — the
	// monitors must absorb both the initial evaluation and the deltas.
	if _, err := st.ApplyBatch(us[:120]); err != nil {
		t.Fatal(err)
	}
	for _, u := range us[:120] {
		cur[u.ID] = u
	}
	for _, q := range qs {
		if _, err := st.RegisterKNN(q.qid, q.p, q.k, 0.5); err != nil {
			t.Fatalf("register knn %d: %v", q.qid, err)
		}
	}

	check := func(tag string) {
		objs := make([]query.Object, 0, len(cur))
		for id, u := range cur {
			objs = append(objs, query.Object{ID: id, Loc: u.Loc, Part: u.Part})
		}
		sort.Slice(objs, func(i, j int) bool { return objs[i].ID < objs[j].ID })
		ora.SetObjects(objs)
		for _, q := range qs {
			want, err := ora.KNN(q.p, q.k, nil)
			if err != nil {
				t.Fatalf("%s: oracle knn: %v", tag, err)
			}
			got := st.Neighbors(q.qid)
			if len(got) != len(want) {
				t.Fatalf("%s query %d: top-k %v, oracle %v", tag, q.qid, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s query %d: top-k %v, oracle %v", tag, q.qid, got, want)
				}
			}
		}
	}
	check("post-register")

	const batch = 48
	for lo := 120; lo < len(us); lo += batch {
		hi := lo + batch
		if hi > len(us) {
			hi = len(us)
		}
		if _, err := st.ApplyBatch(us[lo:hi]); err != nil {
			t.Fatal(err)
		}
		for _, u := range us[lo:hi] {
			cur[u.ID] = u
		}
		if lo/batch%3 == 2 {
			id := us[lo].ID
			st.Remove(id, us[hi-1].T+0.5)
			delete(cur, id)
		}
		check(fmt.Sprintf("batch %d", lo/batch))
	}
}

// TestStreamSubscriptions pins the delta-push semantics: events reach
// subscribers in fold order, slow subscribers drop (counted) rather than
// stall, and Unregister / Close end the channel.
func TestStreamSubscriptions(t *testing.T) {
	t.Parallel()
	f := testspaces.NewStrip()
	st := moving.NewStream(f.Space, moving.StreamOptions{Shards: 2})
	if _, err := st.Register(1, indoor.At(2.5, 8, 0), 6, 0); err != nil {
		t.Fatal(err)
	}
	sub, err := st.Subscribe(1, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Subscribe(99, 4); err == nil {
		t.Fatal("subscribe to unknown monitor must fail")
	}

	in := moving.Update{ID: 7, Loc: indoor.At(2.5, 9, 0), Part: f.R1, T: 1}
	if _, err := st.Apply(in); err != nil {
		t.Fatal(err)
	}
	ev := <-sub.Events()
	if ev.Query != 1 || ev.Object != 7 || !ev.Enter {
		t.Fatalf("subscription delivered %+v, want enter of object 7", ev)
	}

	// A buffer-1 subscriber facing a multi-event batch must drop, not block.
	tiny, err := st.Subscribe(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	batch := []moving.Update{
		{ID: 20, Loc: indoor.At(2, 9, 0), Part: f.R1, T: 2},
		{ID: 21, Loc: indoor.At(3, 9, 0), Part: f.R1, T: 3},
		{ID: 22, Loc: indoor.At(2, 8, 0), Part: f.R1, T: 4},
	}
	if _, err := st.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	if sub.Dropped() != 0 {
		t.Fatalf("roomy subscriber dropped %d", sub.Dropped())
	}
	if tiny.Dropped() == 0 {
		t.Fatal("buffer-1 subscriber absorbed 3 events without dropping")
	}
	tiny.Close()
	tiny.Close() // idempotent

	st.Unregister(1)
	for range sub.Events() {
		// drain until the unregister closes the channel
	}

	if _, err := st.Register(2, indoor.At(2.5, 8, 0), 6, 5); err != nil {
		t.Fatal(err)
	}
	sub2, err := st.Subscribe(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.Closed() {
		t.Fatal("Closed before Close")
	}
	st.Close()
	if !st.Closed() {
		t.Fatal("Closed false after Close")
	}
	if _, open := <-sub2.Events(); open {
		t.Fatal("Close left a subscription channel open")
	}
	if _, err := st.ApplyBatch(batch); !errors.Is(err, moving.ErrStreamClosed) {
		t.Fatalf("ApplyBatch after Close: %v, want ErrStreamClosed", err)
	}
	if _, err := st.Register(3, indoor.At(2.5, 8, 0), 6, 6); !errors.Is(err, moving.ErrStreamClosed) {
		t.Fatalf("Register after Close: %v, want ErrStreamClosed", err)
	}
	if _, err := st.Subscribe(2, 4); !errors.Is(err, moving.ErrStreamClosed) {
		t.Fatalf("Subscribe after Close: %v, want ErrStreamClosed", err)
	}
}

// TestStreamMonitorsListing pins the introspection surface the HTTP
// endpoints expose.
func TestStreamMonitorsListing(t *testing.T) {
	t.Parallel()
	f := testspaces.NewStrip()
	st := moving.NewStream(f.Space, moving.StreamOptions{})
	if _, err := st.Register(5, indoor.At(2.5, 8, 0), 6, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := st.RegisterKNN(2, indoor.At(2.5, 8, 0), 3, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := st.RegisterKNN(9, indoor.At(2.5, 8, 0), 0, 0); err == nil {
		t.Fatal("k=0 must be rejected")
	}
	if _, err := st.Apply(moving.Update{ID: 1, Loc: indoor.At(2.5, 9, 0), Part: f.R1, T: 1}); err != nil {
		t.Fatal(err)
	}
	mons := st.Monitors()
	if len(mons) != 2 || mons[0].ID != 2 || mons[1].ID != 5 {
		t.Fatalf("monitors = %+v, want ids [2 5]", mons)
	}
	if mons[0].Kind != "knn" || mons[0].K != 3 || mons[0].Size != 1 {
		t.Fatalf("knn info = %+v", mons[0])
	}
	if mons[1].Kind != "range" || mons[1].R != 6 || mons[1].Size != 1 {
		t.Fatalf("range info = %+v", mons[1])
	}
	if st.Result(5) == nil || st.Result(2) == nil || st.Result(404) != nil {
		t.Fatal("Result lookup surface broken")
	}
	if st.Neighbors(5) != nil {
		t.Fatal("Neighbors of a range monitor must be nil")
	}
	if !st.Unregister(5) || st.Unregister(5) {
		t.Fatal("Unregister must report prior existence")
	}
}
