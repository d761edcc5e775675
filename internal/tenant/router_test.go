package tenant

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"indoorsq/internal/exec"
	"indoorsq/internal/obs"
	"indoorsq/internal/query"
)

// testEngines is a small synthetic engine set with a known cost ranking.
var testEngines = []string{"A", "B", "C"}

// cost is an injected cost model: an engine's time and NVD for one op.
type cost func(engine int, op exec.Op, i int) Sample

// flatCost makes B the fastest engine for every op, A mid, C slow, with a
// per-query NVD of nvd.
func flatCost(nvd int) cost {
	return func(engine int, _ exec.Op, _ int) Sample {
		us := []time.Duration{3000, 100, 40000}[engine]
		return Sample{Elapsed: us * time.Microsecond, VisitedDoors: nvd}
	}
}

// drive feeds ops to r the way Venue.Query does, with c's timings, and
// returns the serving engine of each op.
func drive(r *Router, ops []exec.Op, c cost) []string {
	out := make([]string, len(ops))
	for i, op := range ops {
		rt := r.Choose(&op)
		out[i] = r.engines[rt.Engine]
		if rt.Explore {
			samples := make([]Sample, len(r.engines))
			for _, e := range r.ExploreOrder(rt) {
				samples[e] = c(e, op, i)
			}
			r.Explored(rt, samples)
			continue
		}
		r.Observe(rt, &exec.Result{Stats: query.Stats{VisitedDoors: c(rt.Engine, op, i).VisitedDoors}})
	}
	return out
}

// repeat returns n copies of op.
func repeat(op exec.Op, n int) []exec.Op {
	ops := make([]exec.Op, n)
	for i := range ops {
		ops[i] = op
	}
	return ops
}

var (
	rangeOp = exec.Op{Kind: exec.RangeQ, R: 15}
	knnOp   = exec.Op{Kind: exec.KNNQ, K: 10}
	spdOp   = exec.Op{Kind: exec.SPDQ}
)

func mustDecision(t *testing.T, r *Router, op string) Decision {
	t.Helper()
	for _, d := range r.Decisions() {
		if d.Op == op {
			return d
		}
	}
	t.Fatalf("no decision for op %s", op)
	return Decision{}
}

// TestRouterDecisionSequence pins exact decision sequences for two seeds
// from injected explore timings: the four paired explore slots are served
// by the seeded order's engines in turn, then every query goes to the
// fastest engine, B, with no shadow query on another.
func TestRouterDecisionSequence(t *testing.T) {
	for _, c := range []struct {
		seed int64
		want string
	}{
		{42, "ABCABBBBBB"}, // knn explore order A, B, C
		{7, "ACBABBBBBB"},  // knn explore order A, C, B
	} {
		r := NewRouter(testEngines, obs.NewRegistry(), c.seed, RouterConfig{})
		got := strings.Join(drive(r, repeat(knnOp, 10), flatCost(5)), "")
		if got != c.want {
			t.Errorf("seed %d: decisions %s, want %s", c.seed, got, c.want)
		}
	}
}

// TestRouterReproducible pins the acceptance criterion: two routers with the
// same seed, fed identical ops and timings, make the identical decision
// sequence, and a different seed changes some class's explore order.
func TestRouterReproducible(t *testing.T) {
	cfg := RouterConfig{ExplorePerEngine: 2, ReevalEvery: 10}
	var ops []exec.Op
	for i := 0; i < 600; i++ {
		ops = append(ops, exec.Op{Kind: exec.Kind(i % 3), R: float64(i % 50), K: 1 + i%20})
	}
	// NVD swings with the op index, so windows drift and bands re-explore.
	c := func(engine int, op exec.Op, i int) Sample {
		return Sample{Elapsed: time.Duration(1+(i*7+engine*13)%17) * time.Microsecond, VisitedDoors: (i / 100 % 3) * 40}
	}
	s1 := drive(NewRouter(testEngines, obs.NewRegistry(), 42, cfg), ops, c)
	s2 := drive(NewRouter(testEngines, obs.NewRegistry(), 42, cfg), ops, c)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("decision %d diverged: %q vs %q", i, s1[i], s2[i])
		}
	}
	r1 := NewRouter(testEngines, obs.NewRegistry(), 42, cfg)
	r3 := NewRouter(testEngines, obs.NewRegistry(), 43, cfg)
	if fmt.Sprint(r1.orders) == fmt.Sprint(r3.orders) {
		t.Fatal("seeds 42 and 43 produced identical explore orders for every class")
	}
}

// TestRouterConvergesToFastest feeds a heterogeneous query mix whose cost
// per query spans 100×: the most expensive query lands in the first
// explore slot. An unpaired explore would charge that query to whichever
// engine served it; paired explore charges every engine for it and commits
// the engine that is fastest on every query, B, which then serves every
// routed query.
func TestRouterConvergesToFastest(t *testing.T) {
	r := NewRouter(testEngines, obs.NewRegistry(), 7, RouterConfig{})
	weight := []time.Duration{100, 1, 3, 1, 2, 1, 5}
	c := func(engine int, _ exec.Op, i int) Sample {
		factor := []time.Duration{13, 10, 50}[engine] // A 1.3×, B 1×, C 5×
		return Sample{Elapsed: weight[i%len(weight)] * factor * time.Microsecond, VisitedDoors: 20}
	}
	seq := drive(r, repeat(rangeOp, 400), c)
	for i, e := range seq[4:] {
		if e != "B" {
			t.Fatalf("query %d after explore served by %s, want only B", i+4, e)
		}
	}
	d := mustDecision(t, r, obs.OpRange)
	if d.Mode != "exploit" || d.Engine != "B" || d.N != 400 || len(d.Bands) != 1 {
		t.Fatalf("decision %+v", d)
	}
	b := d.Bands[0]
	if b.Band != "r∈[8,16)" || b.N != 400 || b.OffCommit != 4 || b.Explores != 1 || b.Reexplores != 0 {
		t.Fatalf("band %+v", b)
	}
	if !strings.HasPrefix(b.Reason, "commit B: paired 262 µs/query vs A 341, C 1312; r∈[8,16)") {
		t.Fatalf("reason %q", b.Reason)
	}
	if len(b.Paired) != 3 || b.Paired[1].Engine != "B" || b.Paired[1].MeanNVD != 20 {
		t.Fatalf("paired evidence %+v", b.Paired)
	}
	// The classes without traffic are still exploring.
	if d := mustDecision(t, r, obs.OpSPD); d.Mode != "explore" || d.Engine != "" || len(d.Bands) != 0 {
		t.Fatalf("idle class %+v", d)
	}
}

// TestRouterReevaluates checks NVD drift: a committed engine whose NVD
// doubles re-opens explore, which commits the now fastest engine, and one
// whose NVD stays inside the band never re-explores.
func TestRouterReevaluates(t *testing.T) {
	cfg := RouterConfig{ReevalEvery: 16}
	r := NewRouter(testEngines, obs.NewRegistry(), 7, cfg)
	drive(r, repeat(knnOp, 100), flatCost(10))
	// (15+1)/(10+1) = 1.45: inside [½, 2], never re-explores.
	drive(r, repeat(knnOp, 2000), flatCost(15))
	if b := mustDecision(t, r, obs.OpKNN).Bands[0]; b.Engine != "B" || b.Reexplores != 0 || b.Explores != 1 {
		t.Fatalf("in-band NVD: %+v", b)
	}
	// The data changes: B's NVD doubles and A becomes the fastest engine.
	shifted := func(engine int, _ exec.Op, _ int) Sample {
		us := []time.Duration{50, 400, 40000}[engine]
		return Sample{Elapsed: us * time.Microsecond, VisitedDoors: 30}
	}
	seq := drive(r, repeat(knnOp, 100), shifted)
	if b := mustDecision(t, r, obs.OpKNN).Bands[0]; b.Engine != "A" || b.Reexplores != 1 || b.Explores != 2 {
		t.Fatalf("after the drift: %+v", b)
	}
	// The drift shows at the 16th query; four paired slots follow.
	if got := strings.Join(seq[:24], ""); got != "BBBBBBBBBBBBBBBBACBAAAAA" {
		t.Fatalf("drift sequence %s", got)
	}
	// Failed queries feed no window: a stream of errors never re-explores.
	for i := 0; i < 100; i++ {
		r.Observe(r.Choose(&knnOp), &exec.Result{Err: query.ErrNoHost})
	}
	if b := mustDecision(t, r, obs.OpKNN).Bands[0]; b.Reexplores != 1 {
		t.Fatalf("errors re-explored: %+v", b)
	}
}

// TestRouterResetReopensExplore: a swap's Reset re-opens explore in every
// band and keeps the pins; the next paired explore commits again, and
// reports of the replaced round are dropped.
func TestRouterResetReopensExplore(t *testing.T) {
	r := NewRouter(testEngines, obs.NewRegistry(), 3, RouterConfig{})
	drive(r, repeat(rangeOp, 20), flatCost(4))
	if err := r.Pin(obs.OpSPD, "C"); err != nil {
		t.Fatal(err)
	}
	stale := r.Choose(&knnOp) // an explore slot of the knn band's first round
	r.Reset()
	r.Explored(stale, []Sample{{Elapsed: 1}, {Elapsed: 1}, {Elapsed: 1}})
	if b := mustDecision(t, r, obs.OpRange).Bands[0]; b.Mode != "explore" || b.Engine != "B" || b.Reexplores != 1 {
		t.Fatalf("range after reset: %+v", b)
	}
	if pins := r.Pins(); len(pins) != 1 || pins[obs.OpSPD] != "C" {
		t.Fatalf("pins after reset: %v", pins)
	}
	if rt := r.Choose(&rangeOp); !rt.Explore {
		t.Fatal("first query after reset is not an explore slot")
	} else {
		r.Explored(rt, []Sample{{Elapsed: 3}, {Elapsed: 1}, {Elapsed: 9}})
	}
	seq := drive(r, repeat(rangeOp, 10), flatCost(4))
	if b := mustDecision(t, r, obs.OpRange).Bands[0]; b.Mode != "exploit" || b.Explores != 2 {
		t.Fatalf("range did not re-commit: %+v (%v)", b, seq)
	}
	// Only the reset round's four reports count toward knn's commit.
	drive(r, repeat(knnOp, 3), flatCost(4))
	if d := mustDecision(t, r, obs.OpKNN); d.Mode != "explore" {
		t.Fatalf("stale report completed a round: %+v", d)
	}
	drive(r, repeat(knnOp, 1), flatCost(4))
	if d := mustDecision(t, r, obs.OpKNN); d.Mode != "exploit" || d.Engine != "B" {
		t.Fatalf("knn after four reports: %+v", d)
	}
	if rt := r.Choose(&spdOp); !rt.Pinned || r.engines[rt.Engine] != "C" {
		t.Fatalf("pinned spd routed to %+v", rt)
	}
}

// TestRouterBandClamp: hostile parameters land in the first or last band,
// so router state never grows with r or k.
func TestRouterBandClamp(t *testing.T) {
	r := NewRouter(testEngines, obs.NewRegistry(), 1, RouterConfig{})
	n := len(r.bands)
	for _, c := range []struct {
		op   exec.Op
		band string
	}{
		{exec.Op{Kind: exec.RangeQ, R: 0}, "r<2"},
		{exec.Op{Kind: exec.RangeQ, R: 1e-9}, "r<2"},
		{exec.Op{Kind: exec.RangeQ, R: 1e300}, "r≥4096"},
		{exec.Op{Kind: exec.RangeQ, R: math.Inf(1)}, "r≥4096"},
		{exec.Op{Kind: exec.RangeQ, R: math.NaN()}, "r<2"},
		{exec.Op{Kind: exec.RangeQ, R: 600}, "r∈[512,1024)"},
		{exec.Op{Kind: exec.KNNQ, K: 1}, "k<2"},
		{exec.Op{Kind: exec.KNNQ, K: 1 << 30}, "k≥128"},
		{exec.Op{Kind: exec.KNNQ, K: 10}, "k∈[8,16)"},
		{exec.Op{Kind: exec.SPDQ, R: 1e300, K: 1 << 30}, "every s2t"},
	} {
		b := bandOf(&c.op)
		if b < 0 || b >= classBands[c.op.Kind] {
			t.Fatalf("%+v: band %d outside [0,%d)", c.op, b, classBands[c.op.Kind])
		}
		if got := bandLabel(c.op.Kind, b); got != c.band {
			t.Fatalf("%+v: band %q, want %q", c.op, got, c.band)
		}
		r.Choose(&c.op)
	}
	if len(r.bands) != n {
		t.Fatalf("router grew from %d to %d bands", n, len(r.bands))
	}
}

// TestRouterPins covers the deterministic-override knob: a pin bypasses the
// model, an unknown engine or op is rejected, and unpinning resumes routing.
func TestRouterPins(t *testing.T) {
	r := NewRouter(testEngines, obs.NewRegistry(), 1, RouterConfig{})
	if err := r.Pin(obs.OpRange, "Z"); err == nil {
		t.Fatal("pin to unknown engine accepted")
	}
	if err := r.Pin("teleport", "A"); err == nil {
		t.Fatal("pin on unknown op accepted")
	}
	if err := r.Pin(obs.OpRange, "C"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if rt := r.Choose(&rangeOp); r.engines[rt.Engine] != "C" || !rt.Pinned {
			t.Fatalf("pinned op routed to %+v", rt)
		}
	}
	if d := mustDecision(t, r, obs.OpRange); d.Mode != "pinned" || d.Pinned != "C" || d.N != 0 {
		t.Fatalf("decision should report the pin, got %+v", d)
	}
	if r.Default() != "" {
		t.Fatalf("one pinned class reported default %q", r.Default())
	}
	// Pin-all, then unpin everything.
	if err := r.Pin("", "A"); err != nil {
		t.Fatal(err)
	}
	for _, op := range []exec.Op{rangeOp, knnOp, spdOp} {
		if rt := r.Choose(&op); r.engines[rt.Engine] != "A" {
			t.Fatalf("pin-all: %v routed to %q", op.Kind, r.engines[rt.Engine])
		}
	}
	if r.Default() != "A" {
		t.Fatalf("pin-all default %q", r.Default())
	}
	r.Unpin("teleport")
	if len(r.Pins()) != 3 {
		t.Fatalf("unpinning an unknown op changed the pins: %v", r.Pins())
	}
	r.Unpin("")
	if d := mustDecision(t, r, obs.OpRange); d.Mode == "pinned" || len(r.Pins()) != 0 {
		t.Fatalf("unpin left the pin in place: %+v", d)
	}
}

// TestRouterConcurrent routes one band from several goroutines while swaps
// reset it and the decision table is read (run under -race): every routed
// query is counted once, and the band ends committed.
func TestRouterConcurrent(t *testing.T) {
	r := NewRouter(testEngines, obs.NewRegistry(), 11, RouterConfig{ReevalEvery: 8})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			drive(r, repeat(rangeOp, 500), flatCost(3+g%2))
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			r.Reset()
			r.Decisions()
		}
	}()
	wg.Wait()
	drive(r, repeat(rangeOp, 8), flatCost(3))
	d := mustDecision(t, r, obs.OpRange)
	if d.N != 4*500+8 || d.Mode != "exploit" || d.Engine != "B" {
		t.Fatalf("decision after concurrent routing: %+v", d)
	}
}

// BenchmarkRouterRouted is the committed hot path: parallel Choose plus
// Observe on a router whose every band has committed. It must not allocate.
func BenchmarkRouterRouted(b *testing.B) {
	r := NewRouter([]string{"IDModel", "IDIndex", "CIndex", "IPTree", "VIPTree"}, obs.NewRegistry(), 1, RouterConfig{})
	ops := []exec.Op{rangeOp, knnOp, spdOp}
	for _, op := range ops {
		drive(r, repeat(op, 8), func(engine int, _ exec.Op, _ int) Sample {
			return Sample{Elapsed: time.Duration(engine+1) * time.Microsecond, VisitedDoors: 12}
		})
	}
	res := exec.Result{Stats: query.Stats{VisitedDoors: 12}}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			rt := r.Choose(&ops[i%len(ops)])
			if rt.Explore {
				b.Fatal("committed router explored")
			}
			r.Observe(rt, &res)
			i++
		}
	})
}

// FuzzRouter drives two routers with the same seed through one fuzzed
// sequence of routed queries (any class and band, explore reports with
// fuzzed timings, committed reports with fuzzed NVD or an error), pins,
// unpins and swaps. Invariants: a pin always wins; every served engine is
// one of the router's; a band leaves explore within ExplorePerEngine routed
// queries of being (re)opened; and both routers decide identically.
func FuzzRouter(f *testing.F) {
	f.Add([]byte{5, 0, 10, 1, 20, 2, 30, 0, 10, 0, 10, 0, 10, 0, 10, 6, 0, 1})
	f.Add([]byte{1, 4, 2, 9, 0, 7, 1, 6, 200, 3, 0, 0, 0, 5, 9, 1, 1, 1, 1})
	f.Add([]byte{3, 1, 255, 1, 0, 1, 128, 2, 64, 6, 4, 0, 2, 0, 1, 0, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		engines := []string{"IDModel", "IDIndex", "CIndex", "IPTree", "VIPTree"}[:1+int(data[0])%5]
		cfg := RouterConfig{ExplorePerEngine: 1 + int(data[0]/5)%4, ReevalEvery: 1 + int(data[0]/20)%8}
		r1 := NewRouter(engines, obs.NewRegistry(), int64(data[0]), cfg)
		r2 := NewRouter(engines, obs.NewRegistry(), int64(data[0]), cfg)
		pins := map[exec.Kind]int{}
		streak := make([]int, len(r1.bands))
		next := func(i *int) byte {
			*i++
			if *i < len(data) {
				return data[*i]
			}
			return 0
		}
		for i := 0; i < len(data); {
			cmd, arg := next(&i), next(&i)
			k := exec.Kind(arg % 3)
			switch cmd % 8 {
			case 4: // pin one class, or all of them
				e := int(arg/3) % len(engines)
				op := RoutedOps[k]
				if arg&0x80 != 0 {
					op = ""
					pins = map[exec.Kind]int{exec.RangeQ: e, exec.KNNQ: e, exec.SPDQ: e}
				} else {
					pins[k] = e
				}
				if r1.Pin(op, engines[e]) != nil || r2.Pin(op, engines[e]) != nil {
					t.Fatalf("pin %q to %s refused", op, engines[e])
				}
			case 5: // unpin one class, or all of them
				op := RoutedOps[k]
				if arg&0x80 != 0 {
					op = ""
					pins = map[exec.Kind]int{}
				}
				delete(pins, k)
				r1.Unpin(op)
				r2.Unpin(op)
			case 6: // a swap to a new generation
				r1.Reset()
				r2.Reset()
				clear(streak)
			default: // one routed query
				x := next(&i)
				op := exec.Op{Kind: k, R: math.Ldexp(float64(x), int(arg/3)%40-20), K: 1 + int(x)<<(arg/3%24)}
				rt1, rt2 := r1.Choose(&op), r2.Choose(&op)
				if rt1.Engine != rt2.Engine || rt1.Explore != rt2.Explore || rt1.Pinned != rt2.Pinned {
					t.Fatalf("routers diverged on %+v: %+v vs %+v", op, rt1, rt2)
				}
				if rt1.Engine < 0 || rt1.Engine >= len(engines) {
					t.Fatalf("served engine %d outside the %d engines", rt1.Engine, len(engines))
				}
				if e, ok := pins[k]; ok != rt1.Pinned || (ok && e != rt1.Engine) {
					t.Fatalf("pin %d (set %v) lost to %+v", e, ok, rt1)
				}
				if rt1.Pinned {
					continue
				}
				if rt1.Explore {
					samples := make([]Sample, len(engines))
					for _, e := range r1.ExploreOrder(rt1) {
						samples[e] = Sample{Elapsed: time.Duration(next(&i)), VisitedDoors: int(x)}
					}
					r1.Explored(rt1, samples)
					r2.Explored(rt2, samples)
				} else {
					res := exec.Result{Stats: query.Stats{VisitedDoors: int(next(&i))}}
					if cmd&0x80 != 0 {
						res.Err = query.ErrNoHost
					}
					r1.Observe(rt1, &res)
					r2.Observe(rt2, &res)
				}
				bi := r1.first[k] + bandOf(&op)
				if r1.bands[bi].state.Load().explore {
					streak[bi]++
				} else {
					streak[bi] = 0
				}
				if streak[bi] > cfg.ExplorePerEngine {
					t.Fatalf("band %d still exploring after %d routed queries", bi, streak[bi])
				}
			}
		}
		if d1, d2 := fmt.Sprint(r1.Decisions()), fmt.Sprint(r2.Decisions()); d1 != d2 {
			t.Fatalf("decision tables differ:\n%s\n%s", d1, d2)
		}
	})
}
