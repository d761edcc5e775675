package moving_test

import (
	"math/rand"
	"sort"
	"testing"

	"indoorsq/internal/indoor"
	"indoorsq/internal/moving"
	"indoorsq/internal/oracle"
	"indoorsq/internal/query"
	"indoorsq/internal/spacegen"
	"indoorsq/internal/workload"
)

// fuzzVenue is one pre-generated venue the fuzzer can select, with a pool
// of valid indoor points ops draw from.
type fuzzVenue struct {
	sp   *indoor.Space
	pts  []indoor.Point
	part []indoor.PartitionID
}

func buildFuzzVenues() []fuzzVenue {
	specs := []struct {
		seed int64
		p    spacegen.Params
	}{
		{1, spacegen.Params{Floors: 1, Rows: 2, Cols: 3}},
		{2, spacegen.Params{Floors: 1, Rows: 2, Cols: 4, ExtraDoors: 2}},
		{3, spacegen.Params{Floors: 2, Rows: 2, Cols: 2, Hall: spacegen.HallL}},
		{4, spacegen.Params{Floors: 1, Rows: 3, Cols: 3, OneWayFrac: 0.4}},
	}
	venues := make([]fuzzVenue, 0, len(specs))
	for _, s := range specs {
		sp, err := spacegen.Generate(s.seed, s.p.Normalize())
		if err != nil {
			panic(err)
		}
		v := fuzzVenue{sp: sp}
		gen := workload.New(sp, s.seed*31)
		for i := 0; i < 64; i++ {
			p, part := gen.PointIn()
			v.pts = append(v.pts, p)
			v.part = append(v.part, part)
		}
		venues = append(venues, v)
	}
	return venues
}

// FuzzMonitorStream drives a Stream with a byte-derived op sequence —
// updates, removals, range and kNN registrations, unregistrations — and
// after every op diffs the full monitor state against the oracle's
// from-scratch recomputation over the same object set: range result sets,
// kNN top-k (ids and distances), and the emitted event diffs. The Stream's
// shard count is fuzzed too, so the generative harness also exercises the
// fan-out/merge path. The first byte also seeds the bytes drawn past the
// end of the input.
// Every step also checks the inverted index's packed rows and sorted range
// results (moving.CheckIndex).
func FuzzMonitorStream(f *testing.F) {
	venues := buildFuzzVenues()

	f.Add([]byte{0})
	f.Add([]byte{1, 0, 1, 0, 2, 3, 10, 4, 7, 0, 5, 1})
	f.Add([]byte{2, 3, 5, 2, 6, 1, 2, 0, 9, 1, 4, 3, 3, 2, 8})
	f.Add([]byte{3, 7, 7, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	// The change-only folding edge cases (see TestChangeOnlyEdgeCases),
	// each also with bit 4 of the first byte set (same venue and shard
	// count, another draw seed): range monitor 1 unregistered and
	// registered again while objects 1 and 2 stay put; object 1 removed and
	// re-added at the same point, then elsewhere; kNN monitors on the
	// one-way venue while objects hop between pooled points, some
	// unreachable from the query point.
	for _, seed := range [][]byte{
		{0, 0, 13, 1, 26, 4, 13, 4, 13, 4, 13, 0, 13, 1, 26, 7, 13},
		{1, 4, 13, 5, 6, 0, 13, 6, 13, 0, 13, 6, 13, 6, 13, 0, 25, 0, 13},
		{3, 5, 0, 5, 5, 0, 1, 0, 13, 0, 25, 0, 37, 0, 49, 0, 61, 0, 1, 7, 3, 0, 13, 7, 9},
	} {
		f.Add(seed)
		f.Add(append([]byte{seed[0] | 16}, seed[1:]...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		v := venues[int(data[0])%len(venues)]
		st := moving.NewStream(v.sp, moving.StreamOptions{Shards: 1 + int(data[0]>>2)%4})
		ora := oracle.New(v.sp)
		rng := rand.New(rand.NewSource(int64(data[0]) + 7))

		cur := map[int32]moving.Update{}
		type rq struct {
			p indoor.Point
			r float64
		}
		type kq struct {
			p indoor.Point
			k int
		}
		ranges := map[int32]rq{}
		knns := map[int32]kq{}
		inside := map[int32]map[int32]bool{}
		tm := 0.0

		syncOracle := func() {
			objs := make([]query.Object, 0, len(cur))
			for id, u := range cur {
				objs = append(objs, query.Object{ID: id, Loc: u.Loc, Part: u.Part})
			}
			sort.Slice(objs, func(i, j int) bool { return objs[i].ID < objs[j].ID })
			ora.SetObjects(objs)
		}

		// checkAll diffs every query's state against the oracle and the
		// emitted events against the oracle-side membership diff.
		checkAll := func(op int, events []moving.Event) {
			if err := moving.CheckIndex(st); err != nil {
				t.Fatalf("op %d: index: %v", op, err)
			}
			syncOracle()
			var want []moving.Event
			for qid, q := range ranges {
				ids, err := ora.Range(q.p, q.r, nil)
				if err != nil {
					t.Fatalf("op %d: oracle range: %v", op, err)
				}
				now := make(map[int32]bool, len(ids))
				for _, id := range ids {
					now[id] = true
				}
				got := st.Result(qid)
				if len(got) != len(ids) {
					t.Fatalf("op %d query %d: result %v, oracle %v", op, qid, got, ids)
				}
				for i := range got {
					if got[i] != ids[i] {
						t.Fatalf("op %d query %d: result %v, oracle %v", op, qid, got, ids)
					}
				}
				was := inside[qid]
				for id := range now {
					if !was[id] {
						want = append(want, moving.Event{Query: qid, Object: id, Enter: true})
					}
				}
				for id := range was {
					if !now[id] {
						want = append(want, moving.Event{Query: qid, Object: id, Enter: false})
					}
				}
				inside[qid] = now
			}
			for qid, q := range knns {
				wantN, err := ora.KNN(q.p, q.k, nil)
				if err != nil {
					t.Fatalf("op %d: oracle knn: %v", op, err)
				}
				gotN := st.Neighbors(qid)
				if len(gotN) != len(wantN) {
					t.Fatalf("op %d knn %d: top-k %v, oracle %v", op, qid, gotN, wantN)
				}
				for i := range gotN {
					if gotN[i] != wantN[i] {
						t.Fatalf("op %d knn %d: top-k %v, oracle %v", op, qid, gotN, wantN)
					}
				}
			}
			// Range events must equal the oracle membership diff (kNN events
			// are covered through the top-k state check above).
			var got []moving.Event
			for _, e := range events {
				if _, isRange := ranges[e.Query]; isRange {
					got = append(got, moving.Event{Query: e.Query, Object: e.Object, Enter: e.Enter})
				}
			}
			key := func(e moving.Event) uint64 {
				k := uint64(uint32(e.Query))<<33 | uint64(uint32(e.Object))<<1
				if e.Enter {
					k |= 1
				}
				return k
			}
			sort.Slice(got, func(i, j int) bool { return key(got[i]) < key(got[j]) })
			sort.Slice(want, func(i, j int) bool { return key(want[i]) < key(want[j]) })
			if len(got) != len(want) {
				t.Fatalf("op %d: range events %v, oracle diff %v", op, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("op %d: range events %v, oracle diff %v", op, got, want)
				}
			}
		}

		next := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return byte(rng.Intn(256))
		}

		ops := 0
		for i := 1; i < len(data) && ops < 48; ops++ {
			op := next(i) % 8
			arg := next(i + 1)
			i += 2
			tm += 1
			switch {
			case op <= 3: // update: object to a pooled point
				pi := int(arg) % len(v.pts)
				u := moving.Update{
					ID:   int32(arg % 12),
					Loc:  v.pts[pi],
					Part: v.part[pi],
					T:    tm,
				}
				evs, err := st.Apply(u)
				if err != nil {
					t.Fatalf("op %d: apply: %v", ops, err)
				}
				cur[u.ID] = u
				checkAll(ops, evs)
			case op == 4: // register range
				qid := int32(arg % 6)
				if _, dup := ranges[qid]; dup {
					if _, dup2 := knns[qid]; !dup2 {
						st.Unregister(qid)
						delete(ranges, qid)
						delete(inside, qid)
						checkAll(ops, nil)
						continue
					}
				}
				p := v.pts[int(arg)%len(v.pts)]
				r := 4 + float64(arg%5)*3.5
				evs, err := st.Register(qid, p, r, tm)
				if err != nil {
					continue // duplicate with a knn id: fine, skip
				}
				ranges[qid] = rq{p, r}
				inside[qid] = map[int32]bool{}
				checkAll(ops, evs)
			case op == 5: // register knn
				qid := int32(100 + arg%4)
				if _, dup := knns[qid]; dup {
					st.Unregister(qid)
					delete(knns, qid)
					checkAll(ops, nil)
					continue
				}
				p := v.pts[(int(arg)+7)%len(v.pts)]
				if _, err := st.RegisterKNN(qid, p, 1+int(arg)%4, tm); err != nil {
					t.Fatalf("op %d: register knn: %v", ops, err)
				}
				knns[qid] = kq{p, 1 + int(arg)%4}
				checkAll(ops, nil)
			case op == 6: // remove object
				id := int32(arg % 12)
				evs := st.Remove(id, tm)
				delete(cur, id)
				checkAll(ops, evs)
			default: // batched updates: three objects at once
				var batch []moving.Update
				for j := 0; j < 3; j++ {
					pi := (int(arg) + j*11) % len(v.pts)
					id := int32((int(arg) + j*5) % 12)
					dup := false
					for _, b := range batch {
						if b.ID == id {
							dup = true
							break
						}
					}
					if dup {
						continue
					}
					tm += 1
					batch = append(batch, moving.Update{
						ID: id, Loc: v.pts[pi], Part: v.part[pi], T: tm,
					})
				}
				evs, err := st.ApplyBatch(batch)
				if err != nil {
					t.Fatalf("op %d: batch: %v", ops, err)
				}
				for _, u := range batch {
					cur[u.ID] = u
				}
				checkAll(ops, evs)
			}
		}
	})
}
