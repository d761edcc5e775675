package moving_test

import (
	"fmt"
	"slices"
	"testing"

	"indoorsq/internal/geom"
	"indoorsq/internal/indoor"
	"indoorsq/internal/moving"
	"indoorsq/internal/oracle"
	"indoorsq/internal/query"
)

// oneWaySpace is a hallway H with three rooms above it. A and C open both
// ways onto H; B's door only lets people out into H, so B is unreachable
// from anywhere outside it and an object there is at +Inf from every
// monitor placed elsewhere.
//
//	y=10 +----+----+----+
//	     | A  | B  | C  |
//	y=6  +-dA-+-dB>+-dC-+
//	     |      H       |
//	y=4  +--------------+
//	    x=0   5   10   15
type oneWaySpace struct {
	sp         *indoor.Space
	h, a, b, c indoor.PartitionID
}

func newOneWaySpace(t *testing.T) *oneWaySpace {
	t.Helper()
	bld := indoor.NewBuilder("oneway", 1)
	rect := func(x0, y0, x1, y1 float64) geom.Polygon { return geom.RectPoly(geom.R(x0, y0, x1, y1)) }
	f := &oneWaySpace{}
	f.h = bld.AddHallway(0, rect(0, 4, 15, 6))
	f.a = bld.AddRoom(0, rect(0, 6, 5, 10))
	f.b = bld.AddRoom(0, rect(5, 6, 10, 10))
	f.c = bld.AddRoom(0, rect(10, 6, 15, 10))
	bld.ConnectBoth(bld.AddDoor(geom.Pt(2.5, 6), 0), f.h, f.a)
	bld.ConnectOneWay(bld.AddDoor(geom.Pt(7.5, 6), 0), f.b, f.h)
	bld.ConnectBoth(bld.AddDoor(geom.Pt(12.5, 6), 0), f.h, f.c)
	sp, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	f.sp = sp
	return f
}

// edgeStep is one scripted operation of a change-only edge case.
type edgeStep struct {
	op  string // "range", "knn", "unregister", "batch" or "remove"
	qid int32
	p   indoor.Point
	r   float64
	k   int
	obj int32
	t   float64
	us  []moving.Update
	// must lists events the step has to emit: the proof that the script
	// reaches the state it is named after.
	must []moving.Event
}

// runEdge replays steps on a Stream with opt, batches as scripted, and
// diffs every step against a serial Stream (one shard, one update per
// batch), against Monitor for range monitors, and against the oracle for
// kNN monitors.
func runEdge(t *testing.T, sp *indoor.Space, opt moving.StreamOptions, steps []edgeStep) {
	t.Helper()
	st := moving.NewStream(sp, opt)
	ref := moving.NewStream(sp, moving.StreamOptions{Shards: 1})
	mon := moving.NewMonitor(sp)
	ora := oracle.New(sp)
	cur := map[int32]moving.Update{}
	ranges := map[int32]bool{}
	knns := map[int32]edgeStep{}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range steps {
		label := fmt.Sprintf("step %d (%s)", i, s.op)
		var got, want, base []moving.Event
		switch s.op {
		case "range":
			var err error
			got, err = st.Register(s.qid, s.p, s.r, s.t)
			must(err)
			want, err = ref.Register(s.qid, s.p, s.r, s.t)
			must(err)
			base, err = mon.Register(s.qid, s.p, s.r, s.t)
			must(err)
			ranges[s.qid] = true
		case "knn":
			var err error
			got, err = st.RegisterKNN(s.qid, s.p, s.k, s.t)
			must(err)
			want, err = ref.RegisterKNN(s.qid, s.p, s.k, s.t)
			must(err)
			knns[s.qid] = s
		case "unregister":
			if !st.Unregister(s.qid) || !ref.Unregister(s.qid) {
				t.Fatalf("%s: monitor %d not registered", label, s.qid)
			}
			if ranges[s.qid] {
				mon.Unregister(s.qid)
			}
			delete(ranges, s.qid)
			delete(knns, s.qid)
		case "batch":
			var err error
			got, err = st.ApplyBatch(s.us)
			must(err)
			for _, u := range s.us {
				evs, err := ref.Apply(u)
				must(err)
				want = append(want, evs...)
				evs, err = mon.Apply(u)
				must(err)
				base = append(base, evs...)
				cur[u.ID] = u
			}
		case "remove":
			got = st.Remove(s.obj, s.t)
			want = ref.Remove(s.obj, s.t)
			base = mon.Remove(s.obj, s.t)
			delete(cur, s.obj)
		default:
			t.Fatalf("%s: unknown op", label)
		}
		diffEvents(t, label+" vs serial stream", got, want)
		var gotRange []moving.Event
		for _, e := range got {
			if ranges[e.Query] {
				gotRange = append(gotRange, e)
			}
		}
		diffEvents(t, label+" vs monitor", gotRange, base)
		for _, e := range s.must {
			if !slices.Contains(got, e) {
				t.Fatalf("%s: events %v lack %+v", label, got, e)
			}
		}

		for qid := range ranges {
			g, m := st.Result(qid), mon.Result(qid)
			if !slices.Equal(g, m) {
				t.Fatalf("%s: range %d result %v, monitor %v", label, qid, g, m)
			}
		}
		objs := make([]query.Object, 0, len(cur))
		for id, u := range cur {
			objs = append(objs, query.Object{ID: id, Loc: u.Loc, Part: u.Part})
		}
		slices.SortFunc(objs, func(a, b query.Object) int { return int(a.ID - b.ID) })
		ora.SetObjects(objs)
		for qid, q := range knns {
			w, err := ora.KNN(q.p, q.k, nil)
			must(err)
			if g := st.Neighbors(qid); !slices.Equal(g, w) {
				t.Fatalf("%s: knn %d top-k %v, oracle %v", label, qid, g, w)
			}
		}
	}
}

// TestChangeOnlyEdgeCases drives the sequences where phase A's change
// filter relies on its membership invariant — a monitor's state always
// records the object's last position — and requires the batched, sharded
// Stream to match serial evaluation, the scan-all Monitor and the oracle
// at every step.
func TestChangeOnlyEdgeCases(t *testing.T) {
	f := newOneWaySpace(t)
	inA, inA2 := indoor.At(2.5, 8, 0), indoor.At(2.5, 9, 0)
	inB := indoor.At(7.5, 8, 0)
	inC := indoor.At(12.5, 8, 0)
	inH := indoor.At(9, 5, 0)
	up := func(id int32, p indoor.Point, part indoor.PartitionID, t float64) moving.Update {
		return moving.Update{ID: id, Loc: p, Part: part, T: t}
	}
	enter := func(q, o int32, t float64) moving.Event { return moving.Event{Query: q, Object: o, Enter: true, T: t} }
	leave := func(q, o int32, t float64) moving.Event { return moving.Event{Query: q, Object: o, T: t} }

	cases := []struct {
		name  string
		steps []edgeStep
	}{
		{"twice in one batch", []edgeStep{
			{op: "range", qid: 1, p: indoor.At(2.5, 5, 0), r: 6},
			{op: "range", qid: 3, p: inC, r: 4},
			{op: "batch", us: []moving.Update{up(1, inA, f.a, 1), up(2, inH, f.h, 2)},
				must: []moving.Event{enter(1, 1, 1)}},
			// Object 1 leaves A for C and comes back within one batch:
			// monitor 1 sees a leave and an enter, monitor 3 an enter and
			// a leave, each folded in batch order.
			{op: "batch", us: []moving.Update{up(1, inC, f.c, 3), up(2, inA2, f.a, 4), up(1, inA2, f.a, 5)},
				must: []moving.Event{leave(1, 1, 3), enter(3, 1, 3), enter(1, 2, 4), enter(1, 1, 5), leave(3, 1, 5)}},
			// Both report the same positions again: nothing changes.
			{op: "batch", us: []moving.Update{up(1, inA2, f.a, 6), up(2, inA2, f.a, 7)}},
			// Object 3 crosses monitor 1's radius and back without leaving H.
			{op: "batch", us: []moving.Update{up(3, inH, f.h, 8), up(3, indoor.At(4, 5, 0), f.h, 9), up(3, inH, f.h, 10)},
				must: []moving.Event{enter(1, 3, 9), leave(1, 3, 10)}},
		}},
		{"unregister then register while objects stay put", []edgeStep{
			{op: "range", qid: 1, p: indoor.At(2.5, 5, 0), r: 6},
			{op: "batch", us: []moving.Update{up(1, inA, f.a, 1), up(2, inC, f.c, 2)}},
			{op: "unregister", qid: 1},
			{op: "range", qid: 1, p: inC, r: 4, t: 3, must: []moving.Event{enter(1, 2, 3)}},
			// Same positions again: the new monitor 1 already holds object
			// 2 and never held object 1.
			{op: "batch", us: []moving.Update{up(1, inA, f.a, 4), up(2, inC, f.c, 5)}},
			{op: "batch", us: []moving.Update{up(1, inC, f.c, 6), up(2, inA, f.a, 7)},
				must: []moving.Event{enter(1, 1, 6), leave(1, 2, 7)}},
		}},
		{"remove then re-add", []edgeStep{
			{op: "range", qid: 1, p: indoor.At(2.5, 5, 0), r: 6},
			{op: "knn", qid: 10, p: indoor.At(2.5, 5, 0), k: 1},
			{op: "batch", us: []moving.Update{up(1, inA, f.a, 1)}},
			{op: "remove", obj: 1, t: 2, must: []moving.Event{leave(1, 1, 2), leave(10, 1, 2)}},
			// The same id reappears where it was: it must enter again.
			{op: "batch", us: []moving.Update{up(1, inA, f.a, 3)},
				must: []moving.Event{enter(1, 1, 3), enter(10, 1, 3)}},
			{op: "remove", obj: 1, t: 4},
			{op: "remove", obj: 1, t: 5},
			{op: "batch", us: []moving.Update{up(1, inC, f.c, 6)}, must: []moving.Event{enter(10, 1, 6)}},
		}},
		{"knn finite, +Inf, finite", []edgeStep{
			{op: "knn", qid: 10, p: indoor.At(10, 5, 0), k: 2},
			{op: "range", qid: 2, p: inB, r: 5},
			{op: "batch", us: []moving.Update{up(5, inH, f.h, 1), up(6, inC, f.c, 2), up(7, inA, f.a, 3)},
				must: []moving.Event{enter(10, 5, 1), enter(10, 6, 2)}},
			// Into B, unreachable from the kNN point: object 5 drops out
			// and object 7 takes its place; the range monitor in B, which
			// reaches H, holds it.
			{op: "batch", us: []moving.Update{up(5, inB, f.b, 4)},
				must: []moving.Event{leave(10, 5, 4), enter(10, 7, 4)}},
			// +Inf to +Inf: moving within B changes nothing for the kNN.
			{op: "batch", us: []moving.Update{up(5, indoor.At(8, 9, 0), f.b, 5)}},
			{op: "batch", us: []moving.Update{up(5, inH, f.h, 6)},
				must: []moving.Event{enter(10, 5, 6), leave(10, 7, 6)}},
		}},
	}
	// The "/no reach" suffix keeps the subtest ids stable.
	for _, c := range cases {
		t.Run(c.name+"/no reach", func(t *testing.T) {
			runEdge(t, f.sp, moving.StreamOptions{Shards: 4}, c.steps)
		})
	}
}
