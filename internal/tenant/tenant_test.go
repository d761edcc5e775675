package tenant

import (
	"context"
	"path/filepath"
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
		Shards: 2, Seed: 99,
		Router: RouterConfig{ExplorePerEngine: 1, ReevalEvery: 8, SampleEvery: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tier
}

// TestTierBoot checks shard placement, venue lookup, object seeding, and
// that routed queries agree with every pinned engine (the engines answer
// identically by the differential-suite guarantee, so routing can never
// change an answer — only who computes it).
func TestTierBoot(t *testing.T) {
	tier := newTestTier(t)
	if got := tier.VenueIDs(); len(got) != 3 || got[0] != "airport-c" || got[1] != "mall-a" || got[2] != "mall-b" {
		t.Fatalf("VenueIDs = %v", got)
	}
	if tier.NumShards() != 2 {
		t.Fatalf("NumShards = %d", tier.NumShards())
	}
	if _, ok := tier.Venue("nope"); ok {
		t.Fatal("lookup of unknown venue succeeded")
	}
	for _, id := range tier.VenueIDs() {
		v, ok := tier.Venue(id)
		if !ok {
			t.Fatalf("venue %q missing", id)
		}
		if got := tier.ShardOf(id); got < 0 || got >= tier.NumShards() {
			t.Fatalf("ShardOf(%q) = %d", id, got)
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
		var st query.Stats
		routed, eng, err := v.Range(context.Background(), p, 8, &st, "")
		if err != nil {
			t.Fatalf("venue %q routed range via %s: %v", id, eng, err)
		}
		for _, pin := range fastEngines {
			got, _, err := v.Range(context.Background(), p, 8, &st, pin)
			if err != nil {
				t.Fatalf("venue %q pinned range via %s: %v", id, pin, err)
			}
			if len(got) != len(routed) {
				t.Fatalf("venue %q: %s answered %v, routed answer was %v", id, pin, got, routed)
			}
			for i := range got {
				if got[i] != routed[i] {
					t.Fatalf("venue %q: %s answered %v, routed answer was %v", id, pin, got, routed)
				}
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
		if _, _, err := v.Range(context.Background(), p, 8, &st, "VIPTree"); err == nil {
			t.Fatalf("venue %q accepted an override for an engine it does not serve", id)
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
		for _, op := range RoutedOps {
			oa, ob := va.Router().ops[op].order, vb.Router().ops[op].order
			for i := range oa {
				if oa[i] != ob[i] {
					t.Fatalf("venue %q op %s: explore orders diverge: %v vs %v", id, op, oa, ob)
				}
			}
		}
	}
}

// TestTierRun routes a mixed batch through the shard pool and cross-checks
// every result against a direct pinned call on the same generation.
func TestTierRun(t *testing.T) {
	tier := newTestTier(t)
	v, _ := tier.Venue("mall-a")
	gen := workload.New(v.Space, 3)
	var ops []exec.Op
	for i := 0; i < 12; i++ {
		p, _ := gen.PointIn()
		switch i % 3 {
		case 0:
			ops = append(ops, exec.Op{Kind: exec.RangeQ, P: p, R: 7.5})
		case 1:
			ops = append(ops, exec.Op{Kind: exec.KNNQ, P: p, K: 3})
		default:
			q, _ := gen.PointIn()
			ops = append(ops, exec.Op{Kind: exec.SPDQ, P: p, Q: q})
		}
	}
	results, batch, engines, err := tier.Run(context.Background(), "mall-a", ops, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(ops) || len(engines) != len(ops) {
		t.Fatalf("got %d results, %d engines for %d ops", len(results), len(engines), len(ops))
	}
	if batch.Errs != 0 {
		t.Fatalf("batch errs: %d", batch.Errs)
	}
	var st query.Stats
	for i, op := range ops {
		r := results[i]
		if r.Err != nil {
			t.Fatalf("op %d via %s: %v", i, engines[i], r.Err)
		}
		switch op.Kind {
		case exec.RangeQ:
			want, _, err := v.Range(context.Background(), op.P, op.R, &st, engines[i])
			if err != nil || len(want) != len(r.IDs) {
				t.Fatalf("op %d: range mismatch (%v): %v vs %v", i, err, r.IDs, want)
			}
		case exec.KNNQ:
			want, _, err := v.KNN(context.Background(), op.P, op.K, &st, engines[i])
			if err != nil || len(want) != len(r.Neighbors) {
				t.Fatalf("op %d: knn mismatch (%v)", i, err)
			}
		case exec.SPDQ:
			want, _, err := v.SPD(context.Background(), op.P, op.Q, &st, engines[i])
			if err != nil || want.Dist != r.Path.Dist {
				t.Fatalf("op %d: spd mismatch (%v): %v vs %v", i, err, r.Path.Dist, want.Dist)
			}
		}
	}
	// Unknown venue and unknown override are rejected up front.
	if _, _, _, err := tier.Run(context.Background(), "nope", ops, ""); err == nil {
		t.Fatal("Run on unknown venue succeeded")
	}
	if _, _, _, err := tier.Run(context.Background(), "mall-a", ops, "VIPTree"); err == nil {
		t.Fatal("Run with an unserved override succeeded")
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
	var st query.Stats
	if _, _, err := old.Range(context.Background(), p, 9, &st, ""); err != nil {
		t.Fatal(err)
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
	cur, _ := tier.Venue("mall-b")
	if cur != nv {
		t.Fatal("lookup does not see the new generation")
	}
	// Both generations answer identically (immutable states).
	got, _, err := nv.Range(context.Background(), p, 9, &st, "IDIndex")
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := old.Range(context.Background(), p, 9, &st, "IDIndex")
	if err != nil || len(got) != len(want) {
		t.Fatalf("generations disagree: %v vs %v (%v)", got, want, err)
	}
	// Other venues were untouched.
	if va, _ := tier.Venue("mall-a"); va.Epoch() != 1 {
		t.Fatalf("swap of mall-b bumped mall-a to epoch %d", va.Epoch())
	}
}

// TestTierConcurrentSwap hammers one venue with routed queries and batch
// runs while snapshots swap underneath; run under -race via the Makefile
// race target. Every query must succeed against a consistent generation.
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
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lg := workload.New(v.Space, int64(100+g))
			var st query.Stats
			for i := 0; i < 40; i++ {
				cv, ok := tier.Venue("mall-a")
				if !ok {
					t.Error("venue vanished")
					return
				}
				p, _ := lg.PointIn()
				if _, _, err := cv.Range(context.Background(), p, 6, &st, ""); err != nil {
					t.Errorf("range: %v", err)
					return
				}
				if i%4 == 0 {
					q, _ := lg.PointIn()
					ops := []exec.Op{{Kind: exec.SPDQ, P: p, Q: q}, {Kind: exec.KNNQ, P: p, K: 2}}
					if _, _, _, err := tier.Run(context.Background(), "mall-a", ops, ""); err != nil {
						t.Errorf("run: %v", err)
						return
					}
				}
			}
		}(g)
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
