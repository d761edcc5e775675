package tenant

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"indoorsq/internal/exec"
	"indoorsq/internal/obs"
	"indoorsq/internal/query"
	"indoorsq/internal/snapshot/bundle"
	"indoorsq/internal/spacegen"
	"indoorsq/internal/workload"
)

// fastEngines keeps tier tests quick: the model plus both precomputed
// matrices exercise the build, snapshot, and routing paths without the
// tree constructions.
var fastEngines = []string{"IDModel", "IDIndex", "CIndex"}

func testSpecs() []VenueSpec {
	mk := func(id string, seed int64) VenueSpec {
		return VenueSpec{
			ID:      id,
			GenSeed: seed,
			GenParams: spacegen.Params{
				Floors: 1, Rows: 2, Cols: 3, ExtraDoors: 2,
			},
			Engines: fastEngines,
			Objects: 20,
		}
	}
	return []VenueSpec{mk("mall-a", 11), mk("mall-b", 12), mk("airport-c", 13)}
}

func newTestTier(t *testing.T) *Tier {
	t.Helper()
	tier, err := New(testSpecs(), Options{
		Seed:   99,
		Router: RouterConfig{ExplorePerEngine: 1, ReevalEvery: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tier
}

// TestTierBoot checks venue lookup, object seeding, and
// that routed queries agree with every pinned engine (the engines answer
// identically by the differential-suite guarantee, so routing can never
// change an answer — only who computes it).
func TestTierBoot(t *testing.T) {
	tier := newTestTier(t)
	if got := tier.VenueIDs(); len(got) != 3 || got[0] != "airport-c" || got[1] != "mall-a" || got[2] != "mall-b" {
		t.Fatalf("VenueIDs = %v", got)
	}
	if _, ok := tier.Venue("nope"); ok {
		t.Fatal("lookup of unknown venue succeeded")
	}
	for _, id := range tier.VenueIDs() {
		v, ok := tier.Venue(id)
		if !ok {
			t.Fatalf("venue %q missing", id)
		}
		if len(v.Objects) != 20 {
			t.Fatalf("venue %q seeded %d objects", id, len(v.Objects))
		}
		if v.Epoch() != 1 {
			t.Fatalf("venue %q boot epoch %d", id, v.Epoch())
		}
		if got := v.EngineList(); len(got) != len(fastEngines) {
			t.Fatalf("venue %q engines %v", id, got)
		}

		gen := workload.New(v.Space, 5)
		p, _ := gen.PointIn()
		op := exec.Op{Kind: exec.RangeQ, P: p, R: 8}
		routed, eng := v.Query(context.Background(), op, "")
		if routed.Err != nil {
			t.Fatalf("venue %q routed range via %s: %v", id, eng, routed.Err)
		}
		for _, pin := range fastEngines {
			got, _ := v.Query(context.Background(), op, pin)
			if err := sameAnswer(got, routed); err != nil {
				t.Fatalf("venue %q: %s vs routed: %v", id, pin, err)
			}
		}
		// The venue registry collected the latencies (the router's evidence).
		var total int64
		for _, e := range fastEngines {
			total += v.Registry().Series(e, obs.OpRange).Count.Load()
		}
		if total == 0 {
			t.Fatalf("venue %q: no latency evidence landed in the registry", id)
		}
		// An override naming a missing engine is rejected.
		if res, _ := v.Query(context.Background(), op, "VIPTree"); !errors.Is(res.Err, ErrUnknownEngine) {
			t.Fatalf("venue %q: override for an engine it does not serve: %v", id, res.Err)
		}
	}
}

// TestTierExploreOrderDeterministic boots two tiers from identical specs and
// seeds: every venue's router must have the identical explore order, the
// traffic-independent half of decision reproducibility (the evidence-driven
// half is covered at the router level).
func TestTierExploreOrderDeterministic(t *testing.T) {
	a := newTestTier(t)
	b := newTestTier(t)
	for _, id := range a.VenueIDs() {
		va, _ := a.Venue(id)
		vb, _ := b.Venue(id)
		for k, op := range RoutedOps {
			oa, ob := va.Router().orders[k], vb.Router().orders[k]
			for i := range oa {
				if oa[i] != ob[i] {
					t.Fatalf("venue %q op %s: explore orders diverge: %v vs %v", id, op, oa, ob)
				}
			}
		}
	}
}

// sameAnswer reports how two results of one op differ: range id sets, kNN
// distance per rank and SPD distance (within 1e-9), and the error.
func sameAnswer(a, b exec.Result) error {
	if (a.Err == nil) != (b.Err == nil) {
		return fmt.Errorf("errors differ: %v vs %v", a.Err, b.Err)
	}
	if fmt.Sprint(a.IDs) != fmt.Sprint(b.IDs) {
		return fmt.Errorf("range ids %v vs %v", a.IDs, b.IDs)
	}
	if len(a.Neighbors) != len(b.Neighbors) {
		return fmt.Errorf("%d vs %d neighbors", len(a.Neighbors), len(b.Neighbors))
	}
	for i := range a.Neighbors {
		if math.Abs(a.Neighbors[i].Dist-b.Neighbors[i].Dist) > 1e-9 {
			return fmt.Errorf("knn rank %d: dist %v vs %v", i, a.Neighbors[i].Dist, b.Neighbors[i].Dist)
		}
	}
	if math.Abs(a.Path.Dist-b.Path.Dist) > 1e-9 {
		return fmt.Errorf("spd dist %v vs %v", a.Path.Dist, b.Path.Dist)
	}
	return nil
}

// mixedOps is a deterministic range/kNN/SPD stream over one venue.
func mixedOps(v *Venue, seed int64, n int) []exec.Op {
	gen := workload.New(v.Space, seed)
	ops := make([]exec.Op, n)
	for i := range ops {
		p, _ := gen.PointIn()
		switch i % 3 {
		case 0:
			ops[i] = exec.Op{Kind: exec.RangeQ, P: p, R: 7.5}
		case 1:
			ops[i] = exec.Op{Kind: exec.KNNQ, P: p, K: 3}
		default:
			q, _ := gen.PointIn()
			ops[i] = exec.Op{Kind: exec.SPDQ, P: p, Q: q}
		}
	}
	return ops
}

// TestVenueQuery routes a mixed stream through Venue.Query from four
// exec.Map workers and cross-checks every answer against every pinned engine on the
// same generation; the routed answers must also feed the router's evidence.
func TestVenueQuery(t *testing.T) {
	tier := newTestTier(t)
	v, _ := tier.Venue("mall-a")
	ops := mixedOps(v, 3, 24)
	results := make([]exec.Result, len(ops))
	engines := make([]string, len(ops))
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	exec.Map(len(ops), func(i int, _ *query.Stats) error {
		results[i], engines[i] = v.Query(context.Background(), ops[i], "")
		return nil
	})
	for i, op := range ops {
		if results[i].Err != nil {
			t.Fatalf("op %d via %s: %v", i, engines[i], results[i].Err)
		}
		for _, pin := range fastEngines {
			want, served := v.Query(context.Background(), op, pin)
			if served != pin {
				t.Fatalf("op %d: override %s served by %s", i, pin, served)
			}
			if err := sameAnswer(results[i], want); err != nil {
				t.Fatalf("op %d: routed via %s vs pinned %s: %v", i, engines[i], pin, err)
			}
		}
	}
	var total int64
	for _, e := range fastEngines {
		for _, op := range RoutedOps {
			total += v.Registry().Series(e, op).Count.Load()
		}
	}
	if total < int64(len(ops)) {
		t.Fatalf("registry saw %d queries, want >= %d", total, len(ops))
	}
	// An unserved override and an invalid op fail without a result.
	if res, _ := v.Query(context.Background(), ops[0], "VIPTree"); !errors.Is(res.Err, ErrUnknownEngine) {
		t.Fatalf("unserved override: %v", res.Err)
	}
	bad := exec.Op{Kind: exec.KNNQ, P: ops[0].P, K: 0}
	if res, _ := v.Query(context.Background(), bad, ""); !errors.Is(res.Err, exec.ErrInvalidOp) {
		t.Fatalf("k=0: %v", res.Err)
	}
}

// TestVenueExploreFinishes: explore queries that fail still count with
// their elapsed time, so a band whose paired explore queries are all
// cancelled commits anyway, and only the served run reaches the registry.
func TestVenueExploreFinishes(t *testing.T) {
	tier, err := New(testSpecs()[:1], Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := tier.Venue("mall-a")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, op := range mixedOps(v, 9, 12) {
		if op.Kind != exec.KNNQ {
			continue
		}
		if res, _ := v.Query(ctx, op, ""); !errors.Is(res.Err, context.Canceled) {
			t.Fatalf("cancelled query: %v", res.Err)
		}
	}
	d := v.Router().Decisions()[exec.KNNQ]
	if d.Mode != "exploit" || d.N != 4 || d.Bands[0].Explores != 1 {
		t.Fatalf("cancelled explore did not commit: %+v", d)
	}
	var served int64
	for _, ev := range d.Evidence {
		served += ev.Queries
	}
	if served != 4 {
		t.Fatalf("registry counted %d knn queries, want the 4 served", served)
	}
}

// TestTierSwap snapshots one venue, swaps it in, and checks the epoch
// advances, the object set carries over, the router (same engine set)
// persists with its evidence, and the pre-swap generation stays usable.
func TestTierSwap(t *testing.T) {
	tier := newTestTier(t)
	old, _ := tier.Venue("mall-b")
	gen := workload.New(old.Space, 4)
	p, _ := gen.PointIn()
	op := exec.Op{Kind: exec.RangeQ, P: p, R: 9}
	if res, _ := old.Query(context.Background(), op, ""); res.Err != nil {
		t.Fatal(res.Err)
	}
	routerBefore := old.Router()

	b, err := bundle.Build("mall-b", old.Space, bundle.Options{Engines: fastEngines, Gamma: old.Gamma})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mall-b.isnap")
	if err := b.WriteFile(path, false); err != nil {
		t.Fatal(err)
	}

	if _, err := tier.SwapSnapshot("nope", path); err == nil {
		t.Fatal("swap of unknown venue succeeded")
	}
	nv, err := tier.SwapSnapshot("mall-b", path)
	if err != nil {
		t.Fatal(err)
	}
	if nv.Epoch() != 2 {
		t.Fatalf("post-swap epoch %d", nv.Epoch())
	}
	if nv.Origin != "snapshot" {
		t.Fatalf("post-swap origin %q", nv.Origin)
	}
	if len(nv.Objects) != len(old.Objects) {
		t.Fatalf("swap dropped objects: %d vs %d", len(nv.Objects), len(old.Objects))
	}
	if nv.Router() != routerBefore {
		t.Fatal("swap with an unchanged engine set replaced the router")
	}
	// The routed range query committed its band (one paired explore
	// query in the test config); the swap re-opens it.
	if b := nv.Router().Decisions()[0].Bands[0]; b.Mode != "explore" || b.Explores != 1 || b.Reexplores != 1 {
		t.Fatalf("swap did not re-open explore: %+v", b)
	}
	cur, _ := tier.Venue("mall-b")
	if cur != nv {
		t.Fatal("lookup does not see the new generation")
	}
	// Both generations answer identically (immutable states).
	got, _ := nv.Query(context.Background(), op, "IDIndex")
	want, _ := old.Query(context.Background(), op, "IDIndex")
	if got.Err != nil || want.Err != nil {
		t.Fatalf("post-swap queries: %v / %v", got.Err, want.Err)
	}
	if err := sameAnswer(got, want); err != nil {
		t.Fatalf("generations disagree: %v", err)
	}
	// Other venues were untouched.
	if va, _ := tier.Venue("mall-a"); va.Epoch() != 1 {
		t.Fatalf("swap of mall-b bumped mall-a to epoch %d", va.Epoch())
	}
}

// TestTierConcurrentSwap hammers one venue with routed queries while
// snapshots swap underneath; run under -race via the Makefile race target.
// Every query must succeed against a consistent generation and answer like
// the boot generation's pinned engine.
func TestTierConcurrentSwap(t *testing.T) {
	tier := newTestTier(t)
	v, _ := tier.Venue("mall-a")
	b, err := bundle.Build("mall-a", v.Space, bundle.Options{Engines: fastEngines, Gamma: v.Gamma})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mall-a.isnap")
	if err := b.WriteFile(path, false); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		ops := mixedOps(v, int64(100+g), 40)
		want := make([]exec.Result, len(ops))
		for i, op := range ops {
			want[i], _ = v.Query(context.Background(), op, "IDModel")
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, op := range ops {
				cv, ok := tier.Venue("mall-a")
				if !ok {
					t.Error("venue vanished")
					return
				}
				got, eng := cv.Query(context.Background(), op, "")
				if got.Err != nil {
					t.Errorf("op %d via %s: %v", i, eng, got.Err)
					return
				}
				if err := sameAnswer(got, want[i]); err != nil {
					t.Errorf("op %d via %s at epoch %d: %v", i, eng, cv.Epoch(), err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, err := tier.SwapSnapshot("mall-a", path); err != nil {
				t.Errorf("swap: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if cv, ok := tier.Venue("mall-a"); ok {
				cv.Router().Decisions()
				cv.Epoch()
			}
		}
	}()
	wg.Wait()
	cur, _ := tier.Venue("mall-a")
	if cur.Epoch() != 6 {
		t.Fatalf("expected epoch 6 after 5 swaps, got %d", cur.Epoch())
	}
}

// TestTierSwapPins pins the swap contract for routing overrides: an
// artifact lacking a pinned engine is refused without advancing the epoch,
// and a swap that changes the engine set replaces the router but carries
// every pin over. A path-less swap reloads the venue's own snapshot, and a
// venue without one cannot reload.
func TestTierSwapPins(t *testing.T) {
	tier := newTestTier(t)
	old, _ := tier.Venue("mall-a")
	dir := t.TempDir()
	write := func(name string, engines []string) string {
		b, err := bundle.Build("mall-a", old.Space, bundle.Options{Engines: engines, Gamma: old.Gamma})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := b.WriteFile(path, false); err != nil {
			t.Fatal(err)
		}
		return path
	}
	narrow := write("narrow.isnap", []string{"IDModel", "CIndex"})
	noCIndex := write("no-cindex.isnap", []string{"IDModel", "IDIndex"})

	if _, err := tier.SwapSnapshot("mall-a", ""); err == nil {
		t.Fatal("path-less swap of a venue booted without a snapshot succeeded")
	}
	if err := old.Router().Pin(obs.OpRange, "CIndex"); err != nil {
		t.Fatal(err)
	}
	if _, err := tier.SwapSnapshot("mall-a", noCIndex); err == nil {
		t.Fatal("swap to an artifact lacking the pinned engine succeeded")
	}
	if cur, _ := tier.Venue("mall-a"); cur != old || cur.Epoch() != 1 {
		t.Fatalf("refused swap published epoch %d", cur.Epoch())
	}

	nv, err := tier.SwapSnapshot("mall-a", narrow)
	if err != nil {
		t.Fatal(err)
	}
	if nv.Router() == old.Router() {
		t.Fatal("engine-set change kept the old router")
	}
	if pins := nv.Router().Pins(); len(pins) != 1 || pins[obs.OpRange] != "CIndex" {
		t.Fatalf("pins after router replacement: %v", pins)
	}
	if !old.Stream().Closed() || nv.Stream().Closed() {
		t.Fatal("swap must close the retired generation's stream and only that one")
	}

	// A venue booted from a snapshot reloads it on a path-less swap.
	snapTier, err := New([]VenueSpec{{ID: "mall-a", Snapshot: narrow}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if nv, err := snapTier.SwapSnapshot("mall-a", ""); err != nil || nv.Epoch() != 2 {
		t.Fatalf("path-less reload: %v", err)
	}
}
