package moving_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"indoorsq/internal/indoor"
	"indoorsq/internal/moving"
	"indoorsq/internal/spacegen"
	"indoorsq/internal/workload"
)

// metaFixture is the shared venue + query set + motion stream of the
// metamorphic suite.
type metaFixture struct {
	sp *indoor.Space
	us []moving.Update
	rq []struct {
		qid int32
		p   indoor.Point
		r   float64
	}
	kq []struct {
		qid int32
		p   indoor.Point
		k   int
	}
}

func newMetaFixture(t *testing.T) *metaFixture {
	t.Helper()
	sp, err := spacegen.Generate(33, spacegen.Params{
		Floors: 2, Rows: 3, Cols: 3, ExtraDoors: 3, OneWayFrac: 0.25,
	}.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	fx := &metaFixture{sp: sp}
	fx.us = toUpdates(spacegen.MotionStream(sp, 91, 30, 2000, 1, 0.25, 0.3))
	gen := workload.New(sp, 17)
	for i := 0; i < 6; i++ {
		p, _ := gen.PointIn()
		fx.rq = append(fx.rq, struct {
			qid int32
			p   indoor.Point
			r   float64
		}{int32(i + 1), p, 7 + 2*float64(i)})
	}
	for i := 0; i < 2; i++ {
		p, _ := gen.PointIn()
		fx.kq = append(fx.kq, struct {
			qid int32
			p   indoor.Point
			k   int
		}{int32(50 + i), p, 2 + 3*i})
	}
	return fx
}

// run replays the fixture on a fresh Stream with the given shard count
// and batch size, returning all emitted events (registrations
// included) and the final result set per query.
func (fx *metaFixture) run(t *testing.T, shards, batch int) ([]moving.Event, map[int32][]int32) {
	t.Helper()
	st := moving.NewStream(fx.sp, moving.StreamOptions{Shards: shards})
	var events []moving.Event
	for _, q := range fx.rq {
		evs, err := st.Register(q.qid, q.p, q.r, 0)
		if err != nil {
			t.Fatalf("register %d: %v", q.qid, err)
		}
		events = append(events, evs...)
	}
	for _, q := range fx.kq {
		evs, err := st.RegisterKNN(q.qid, q.p, q.k, 0)
		if err != nil {
			t.Fatalf("register knn %d: %v", q.qid, err)
		}
		events = append(events, evs...)
	}
	for lo := 0; lo < len(fx.us); lo += batch {
		hi := lo + batch
		if hi > len(fx.us) {
			hi = len(fx.us)
		}
		evs, err := st.ApplyBatch(fx.us[lo:hi])
		if err != nil {
			t.Fatalf("batch [%d,%d): %v", lo, hi, err)
		}
		events = append(events, evs...)
	}
	final := map[int32][]int32{}
	for _, q := range fx.rq {
		final[q.qid] = st.Result(q.qid)
	}
	for _, q := range fx.kq {
		final[q.qid] = st.Result(q.qid)
	}
	return events, final
}

func diffFinal(t *testing.T, label string, got, want map[int32][]int32) {
	t.Helper()
	for qid, w := range want {
		g := got[qid]
		if len(g) != len(w) {
			t.Fatalf("%s: query %d final result %v, want %v", label, qid, g, w)
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s: query %d final result %v, want %v", label, qid, g, w)
			}
		}
	}
}

// TestMetamorphicShardsAndBatches asserts the tentpole determinism claim:
// for an update stream with strictly increasing timestamps, the emitted
// event stream — range and kNN monitors alike — is bit-identical across
// shard counts {1,2,8} and batch sizes {1,64,4096}. The
// {shards:1, batch:1} run is serial evaluation; every other
// configuration must reproduce it exactly.
func TestMetamorphicShardsAndBatches(t *testing.T) {
	t.Parallel()
	fx := newMetaFixture(t)
	refEvents, refFinal := fx.run(t, 1, 1)
	if len(refEvents) == 0 {
		t.Fatal("fixture produced no events; the suite is vacuous")
	}
	for _, shards := range []int{1, 2, 8} {
		for _, batch := range []int{1, 64, 4096} {
			if shards == 1 && batch == 1 {
				continue
			}
			label := fmt.Sprintf("shards=%d batch=%d", shards, batch)
			events, final := fx.run(t, shards, batch)
			diffEvents(t, label, events, refEvents)
			diffFinal(t, label, final, refFinal)
		}
	}
}

// TestMetamorphicPermutation permutes updates within each batch tick. The
// batches are built so no object repeats inside one batch, which makes a
// range monitor's per-update membership decision independent of fold order
// — so the range event stream must be exactly invariant. kNN intermediate
// events legitimately depend on intra-batch order (exactly as a serial
// evaluation of the permuted stream would), so for kNN monitors the
// assertion is on the final result sets, which depend only on the final
// positions.
func TestMetamorphicPermutation(t *testing.T) {
	t.Parallel()
	fx := newMetaFixture(t)

	// Chunk the stream into ticks of <= 64 updates with unique object ids.
	var ticks [][]moving.Update
	seen := map[int32]bool{}
	lo := 0
	for i := range fx.us {
		if len(seen) >= 64 || seen[fx.us[i].ID] {
			ticks = append(ticks, fx.us[lo:i])
			seen = map[int32]bool{}
			lo = i
		}
		seen[fx.us[i].ID] = true
	}
	ticks = append(ticks, fx.us[lo:])

	run := func(perm *rand.Rand) ([]moving.Event, map[int32][]int32) {
		st := moving.NewStream(fx.sp, moving.StreamOptions{Shards: 4})
		var events []moving.Event
		for _, q := range fx.rq {
			evs, err := st.Register(q.qid, q.p, q.r, 0)
			if err != nil {
				t.Fatalf("register %d: %v", q.qid, err)
			}
			events = append(events, evs...)
		}
		for _, q := range fx.kq {
			if _, err := st.RegisterKNN(q.qid, q.p, q.k, 0); err != nil {
				t.Fatalf("register knn %d: %v", q.qid, err)
			}
		}
		for _, tick := range ticks {
			batch := append([]moving.Update(nil), tick...)
			if perm != nil {
				perm.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
			}
			evs, err := st.ApplyBatch(batch)
			if err != nil {
				t.Fatalf("batch: %v", err)
			}
			events = append(events, evs...)
		}
		final := map[int32][]int32{}
		for _, q := range fx.rq {
			final[q.qid] = st.Result(q.qid)
		}
		for _, q := range fx.kq {
			final[q.qid] = st.Result(q.qid)
		}
		// Range events only: kNN deltas are order-sensitive by design.
		var rangeEvents []moving.Event
		for _, e := range events {
			if e.Query < 50 {
				rangeEvents = append(rangeEvents, e)
			}
		}
		return rangeEvents, final
	}

	refEvents, refFinal := run(nil)
	for trial := 0; trial < 3; trial++ {
		label := fmt.Sprintf("permutation %d", trial)
		events, final := run(rand.New(rand.NewSource(int64(trial + 1))))
		diffEvents(t, label, events, refEvents)
		diffFinal(t, label, final, refFinal)
	}
}

// TestMetamorphicIndexRows replays the fixture's stream in batches of 64
// while monitors churn — every eighth batch one range and one kNN monitor
// is unregistered and registered again at the same point — and then
// removes a sixth of the objects. After every step the inverted index must
// pass moving.CheckIndex (packed rows in step with their monitors,
// ascending range results) and every range result must equal the scan-all
// Monitor's fed the same steps.
func TestMetamorphicIndexRows(t *testing.T) {
	t.Parallel()
	fx := newMetaFixture(t)
	st := moving.NewStream(fx.sp, moving.StreamOptions{Shards: 4})
	mon := moving.NewMonitor(fx.sp)
	var events []moving.Event
	check := func(step string) {
		t.Helper()
		if err := moving.CheckIndex(st); err != nil {
			t.Fatalf("%s: index: %v", step, err)
		}
		for _, q := range fx.rq {
			if got, want := st.Result(q.qid), mon.Result(q.qid); !slices.Equal(got, want) {
				t.Fatalf("%s: monitor %d holds %v, scan-all %v", step, q.qid, got, want)
			}
		}
	}
	must := func(evs []moving.Event, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, evs...)
	}
	for _, q := range fx.rq {
		must(st.Register(q.qid, q.p, q.r, 0))
		if _, err := mon.Register(q.qid, q.p, q.r, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range fx.kq {
		must(st.RegisterKNN(q.qid, q.p, q.k, 0))
	}
	check("registration")
	tm := 0.0
	for bi, lo := 0, 0; lo < len(fx.us); bi, lo = bi+1, lo+64 {
		batch := fx.us[lo:min(lo+64, len(fx.us))]
		must(st.ApplyBatch(batch))
		for _, u := range batch {
			if _, err := mon.Apply(u); err != nil {
				t.Fatal(err)
			}
		}
		tm = batch[len(batch)-1].T
		check(fmt.Sprintf("batch %d", bi))
		if bi%8 != 7 {
			continue
		}
		rq, kq := fx.rq[bi/8%len(fx.rq)], fx.kq[bi/8%len(fx.kq)]
		st.Unregister(rq.qid)
		mon.Unregister(rq.qid)
		st.Unregister(kq.qid)
		if err := moving.CheckIndex(st); err != nil {
			t.Fatalf("batch %d: index after unregister: %v", bi, err)
		}
		must(st.Register(rq.qid, rq.p, rq.r, tm))
		if _, err := mon.Register(rq.qid, rq.p, rq.r, tm); err != nil {
			t.Fatal(err)
		}
		must(st.RegisterKNN(kq.qid, kq.p, kq.k, tm))
		check(fmt.Sprintf("churn after batch %d", bi))
	}
	for id := int32(0); id < 30; id += 6 {
		tm++
		events = append(events, st.Remove(id, tm)...)
		mon.Remove(id, tm)
		check(fmt.Sprintf("remove %d", id))
	}
	if len(events) == 0 {
		t.Fatal("fixture produced no events; the suite is vacuous")
	}
}
