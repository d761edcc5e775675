package moving_test

import (
	"fmt"
	"sync"
	"testing"

	"indoorsq/internal/indoor"
	"indoorsq/internal/moving"
	"indoorsq/internal/spacegen"
	"indoorsq/internal/workload"
)

// TestStreamSoakConcurrent hammers two venues' streams from 8 goroutines
// mixing ApplyBatch, Remove, Register/Unregister churn, Result reads, and
// subscription reads, for >30k updates total. Each goroutine owns a
// disjoint object-id range per venue, so every object's update sequence is
// well-ordered even though batches from different goroutines interleave.
// At quiescence the membership of every permanent monitor must equal a
// from-scratch serial replay of the final positions, and the net of each
// goroutine's collected enter/leave events must reproduce exactly that
// membership — a lost or duplicated event breaks the ±1 accounting.
//
// The moving package is in the tier-1 race target list, so this runs under
// -race on every verify.
func TestStreamSoakConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short")
	}
	const (
		goroutines = 8
		batches    = 16
		batchSize  = 128 // per goroutine per venue: 16*128*2 = 4096 updates
		permanents = 6
		objsPerG   = 32
	)
	// 8 goroutines × 2 venues × 16 × 128 = 32768 updates > 30k.

	type venue struct {
		sp   *indoor.Space
		st   *moving.Stream
		perm []struct {
			qid int32
			p   indoor.Point
			r   float64
			k   int // 0 = range monitor
		}
	}
	mkVenue := func(seed int64) *venue {
		sp, err := spacegen.Generate(seed, spacegen.Params{
			Floors: 1, Rows: 3, Cols: 4, ExtraDoors: 2,
		}.Normalize())
		if err != nil {
			t.Fatal(err)
		}
		v := &venue{sp: sp, st: moving.NewStream(sp, moving.StreamOptions{Shards: 8})}
		gen := workload.New(sp, seed*3)
		for i := 0; i < permanents; i++ {
			p, _ := gen.PointIn()
			q := struct {
				qid int32
				p   indoor.Point
				r   float64
				k   int
			}{qid: int32(i + 1), p: p, r: 9 + float64(i)*2}
			if i >= permanents-2 {
				q.k = 2 + i // last two permanents are kNN monitors
			}
			v.perm = append(v.perm, q)
			var err error
			if q.k > 0 {
				_, err = v.st.RegisterKNN(q.qid, q.p, q.k, 0)
			} else {
				_, err = v.st.Register(q.qid, q.p, q.r, 0)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return v
	}
	venues := []*venue{mkVenue(71), mkVenue(72)}

	// Per (goroutine, venue): the event log from this goroutine's own calls
	// and the final state of its objects. Merged after the fact.
	type gvState struct {
		events  []moving.Event
		final   map[int32]moving.Update // last applied update per live object
		removed map[int32]bool
	}
	states := make([][]gvState, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		states[g] = make([]gvState, len(venues))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for vi, v := range venues {
				st := &states[g][vi]
				st.final = map[int32]moving.Update{}
				st.removed = map[int32]bool{}
				base := int32(1000 + g*objsPerG) // disjoint per goroutine
				ms := spacegen.MotionStream(v.sp, int64(100+g*10+vi), objsPerG,
					batches*batchSize, float64(g)*1e6+1, 0.25, 0.3)
				us := toUpdates(ms)
				for i := range us {
					us[i].ID += base
				}
				churnID := int32(9000 + g)
				sub, err := v.st.Subscribe(v.perm[g%permanents].qid, 64)
				if err != nil {
					panic(err)
				}
				for b := 0; b < batches; b++ {
					batch := us[b*batchSize : (b+1)*batchSize]
					evs, err := v.st.ApplyBatch(batch)
					if err != nil {
						panic(err)
					}
					st.events = append(st.events, evs...)
					for _, u := range batch {
						st.final[u.ID] = u
						delete(st.removed, u.ID)
					}
					switch b % 4 {
					case 0: // query churn: register + result + unregister
						p := v.perm[0].p
						if _, err := v.st.Register(churnID, p, 6, batch[len(batch)-1].T+0.1); err != nil {
							panic(err)
						}
						v.st.Result(churnID)
						v.st.Unregister(churnID)
					case 1: // remove one own object
						id := batch[0].ID
						evs := v.st.Remove(id, batch[len(batch)-1].T+0.2)
						st.events = append(st.events, evs...)
						delete(st.final, id)
						st.removed[id] = true
					case 2: // result reads of permanents
						for _, q := range v.perm {
							v.st.Result(q.qid)
						}
						v.st.Monitors()
					default: // drain the subscription (lossy reads are fine)
						for drained := false; !drained; {
							select {
							case <-sub.Events():
							default:
								drained = true
							}
						}
					}
				}
				sub.Close()
			}
		}(g)
	}
	wg.Wait()

	for vi, v := range venues {
		// Serial replay: a fresh single-shard stream fed each object's final
		// position once. Membership at quiescence is a pure function of the
		// final positions and the query set, so it must match the live
		// stream that got there through 32k interleaved concurrent updates.
		replay := moving.NewStream(v.sp, moving.StreamOptions{Shards: 1})
		for _, q := range v.perm {
			var err error
			if q.k > 0 {
				_, err = replay.RegisterKNN(q.qid, q.p, q.k, 0)
			} else {
				_, err = replay.Register(q.qid, q.p, q.r, 0)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		tm := 1.0
		for g := 0; g < goroutines; g++ {
			for _, u := range states[g][vi].final {
				u.T = tm
				tm++
				if _, err := replay.Apply(u); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, q := range v.perm {
			live, want := v.st.Result(q.qid), replay.Result(q.qid)
			if fmt.Sprint(live) != fmt.Sprint(want) {
				t.Fatalf("venue %d query %d: live membership %v, serial replay %v",
					vi, q.qid, live, want)
			}
		}

		// Event accounting for the range permanents: net enter-leave per
		// (query, object) across all goroutines must be exactly the final
		// membership indicator — any lost or duplicated event shows up here.
		net := map[[2]int32]int{}
		for g := 0; g < goroutines; g++ {
			for _, e := range states[g][vi].events {
				isPerm := e.Query >= 1 && e.Query <= permanents
				if !isPerm || v.perm[e.Query-1].k > 0 {
					continue
				}
				k := [2]int32{e.Query, e.Object}
				if e.Enter {
					net[k]++
				} else {
					net[k]--
				}
				if net[k] < 0 || net[k] > 1 {
					t.Fatalf("venue %d query %d object %d: event net %d — lost or duplicated event",
						vi, e.Query, e.Object, net[k])
				}
			}
		}
		for _, q := range v.perm {
			if q.k > 0 {
				continue
			}
			member := map[int32]bool{}
			for _, id := range v.st.Result(q.qid) {
				member[id] = true
			}
			for k, n := range net {
				if k[0] != q.qid {
					continue
				}
				if (n == 1) != member[k[1]] {
					t.Fatalf("venue %d query %d object %d: event net %d but membership %v",
						vi, q.qid, k[1], n, member[k[1]])
				}
			}
			for id := range member {
				if net[[2]int32{q.qid, id}] != 1 {
					t.Fatalf("venue %d query %d object %d: member without net enter", vi, q.qid, id)
				}
			}
		}
	}
}
