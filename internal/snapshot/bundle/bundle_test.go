package bundle_test

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"indoorsq/internal/idindex"
	"indoorsq/internal/indoor"
	"indoorsq/internal/query"
	"indoorsq/internal/snapshot"
	"indoorsq/internal/snapshot/bundle"
	"indoorsq/internal/spacegen"
	"indoorsq/internal/workload"
)

// corpusParams mirrors the differential harness's parameter derivation:
// varied hallway topologies, decomposition, one-way doors, multiple floors.
func corpusParams(seed int64) spacegen.Params {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed5eed))
	p := spacegen.Params{
		Floors:      1 + rng.Intn(3),
		Rows:        1 + rng.Intn(3),
		Cols:        2 + rng.Intn(3),
		Hall:        spacegen.HallKind(rng.Intn(3)),
		ExtraDoors:  rng.Intn(6),
		OneWayFrac:  float64(rng.Intn(3)) / 2,
		Imbalance:   rng.Float64(),
		Decompose:   rng.Intn(2) == 1,
		StairLength: 4 + rng.Float64()*6,
		Objects:     8 + rng.Intn(12),
	}
	return p.Normalize()
}

// TestRoundTripBitIdentical is the snapshot gate: across a spacegen corpus,
// save → load must reproduce every engine bit-identically — same Range ids,
// same KNN neighbors with Float64bits-equal distances, same SPD door
// sequences and Float64bits-equal path lengths, same size accounting, and a
// Float64bits-equal IDINDEX distance matrix. Even seeds build the compact
// (float32) IDINDEX so both matrix encodings round-trip.
func TestRoundTripBitIdentical(t *testing.T) {
	dir := t.TempDir()
	for seed := int64(1); seed <= 12; seed++ {
		params := corpusParams(seed)
		sp, err := spacegen.Generate(seed, params)
		if err != nil {
			t.Fatalf("seed=%d: generate: %v", seed, err)
		}
		fresh, err := bundle.Build("corpus", sp, bundle.Options{Gamma: 4, Compact: seed%2 == 0})
		if err != nil {
			t.Fatalf("seed=%d: build: %v", seed, err)
		}
		path := filepath.Join(dir, "b.isq")
		if err := fresh.WriteFile(path, true); err != nil {
			t.Fatalf("seed=%d: write: %v", seed, err)
		}
		loaded, err := bundle.LoadFile(path)
		if err != nil {
			t.Fatalf("seed=%d params=%s: load: %v", seed, params, err)
		}
		if loaded.Origin != "snapshot" || fresh.Origin != "build" {
			t.Fatalf("origins: %q / %q", loaded.Origin, fresh.Origin)
		}
		if loaded.Fingerprint != fresh.Fingerprint {
			t.Fatalf("seed=%d: fingerprints differ", seed)
		}
		if loaded.Graph.N != fresh.Graph.N || loaded.Graph.NumEdges() != fresh.Graph.NumEdges() {
			t.Fatalf("seed=%d: door graph shape differs", seed)
		}

		objs := spacegen.Objects(sp, seed+1, params.Objects)
		gen := workload.New(sp, seed*31)
		pts := gen.Points(6)
		pairs := gen.SPDPairs(0.5, 4)

		for _, name := range bundle.EngineNames {
			fe, le := fresh.Engines[name], loaded.Engines[name]
			if fe == nil || le == nil {
				t.Fatalf("seed=%d: engine %s missing (%v/%v)", seed, name, fe, le)
			}
			if fe.SizeBytes() != le.SizeBytes() {
				t.Fatalf("seed=%d %s: size %d (fresh) vs %d (loaded)", seed, name, fe.SizeBytes(), le.SizeBytes())
			}
			fe.SetObjects(objs)
			le.SetObjects(objs)
			var st query.Stats
			for _, p := range pts {
				fr, ferr := fe.Range(p, 9, &st)
				lr, lerr := le.Range(p, 9, &st)
				if (ferr == nil) != (lerr == nil) {
					t.Fatalf("seed=%d %s: Range errors %v vs %v", seed, name, ferr, lerr)
				}
				if len(fr) != len(lr) {
					t.Fatalf("seed=%d %s: Range %d vs %d results", seed, name, len(fr), len(lr))
				}
				for i := range fr {
					if fr[i] != lr[i] {
						t.Fatalf("seed=%d %s: Range id[%d] %d vs %d", seed, name, i, fr[i], lr[i])
					}
				}
				fk, ferr := fe.KNN(p, 5, &st)
				lk, lerr := le.KNN(p, 5, &st)
				if (ferr == nil) != (lerr == nil) || len(fk) != len(lk) {
					t.Fatalf("seed=%d %s: KNN shape differs", seed, name)
				}
				for i := range fk {
					if fk[i].ID != lk[i].ID || math.Float64bits(fk[i].Dist) != math.Float64bits(lk[i].Dist) {
						t.Fatalf("seed=%d %s: KNN[%d] %v vs %v", seed, name, i, fk[i], lk[i])
					}
				}
			}
			for _, pr := range pairs {
				fp, ferr := fe.SPD(pr.P, pr.Q, &st)
				lp, lerr := le.SPD(pr.P, pr.Q, &st)
				if (ferr == nil) != (lerr == nil) {
					t.Fatalf("seed=%d %s: SPD errors %v vs %v", seed, name, ferr, lerr)
				}
				if ferr != nil {
					continue
				}
				if math.Float64bits(fp.Dist) != math.Float64bits(lp.Dist) || len(fp.Doors) != len(lp.Doors) {
					t.Fatalf("seed=%d %s: SPD %v vs %v", seed, name, fp, lp)
				}
				for i := range fp.Doors {
					if fp.Doors[i] != lp.Doors[i] {
						t.Fatalf("seed=%d %s: SPD door[%d] %d vs %d", seed, name, i, fp.Doors[i], lp.Doors[i])
					}
				}
			}
		}

		// Full-matrix Float64bits equality for the engine whose matrices
		// dominate the snapshot.
		fix := fresh.Engines["IDIndex"].(*idindex.Index)
		lix := loaded.Engines["IDIndex"].(*idindex.Index)
		n := sp.NumDoors()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a := fix.DoorDist(indoor.DoorID(i), indoor.DoorID(j))
				b := lix.DoorDist(indoor.DoorID(i), indoor.DoorID(j))
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("seed=%d: Md2d[%d,%d] %x vs %x", seed, i, j, math.Float64bits(a), math.Float64bits(b))
				}
			}
		}

		// Warm pages landed: the loaded cache starts with the build-side fills.
		lparts, lcells := loaded.Space.DistCache().Filled()
		fparts, fcells := fresh.Space.DistCache().Filled()
		if lparts < fparts || lcells < fcells {
			t.Fatalf("seed=%d: warm cache %d/%d pages loaded, build had %d/%d", seed, lparts, lcells, fparts, fcells)
		}
	}
}

// TestLoadRejectsCorruptFile flips bytes across a saved bundle and verifies
// the loader never silently accepts a damaged artifact.
func TestLoadRejectsCorruptFile(t *testing.T) {
	sp, err := spacegen.Generate(3, corpusParams(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := bundle.Build("corrupt", sp, bundle.Options{Gamma: 4, Engines: []string{"CIndex"}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "b.isq")
	if err := b.WriteFile(path, false); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncations.
	for _, n := range []int{0, 10, len(orig) / 3, len(orig) - 1} {
		if err := os.WriteFile(path, orig[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := bundle.LoadFile(path); err == nil {
			t.Fatalf("truncation to %d bytes loaded", n)
		}
	}
	// Bit flips at sampled offsets (every byte is too slow at bundle size).
	for off := 0; off < len(orig); off += 61 {
		mut := append([]byte(nil), orig...)
		mut[off] ^= 0x10
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := bundle.LoadFile(path); err == nil {
			t.Fatalf("bit flip at offset %d loaded silently", off)
		}
	}
}

// TestLoadRejectsForeignSpace ensures a snapshot only ever boots the venue
// it was written for: the header fingerprint (and the recomputed space
// fingerprint) must agree.
func TestLoadRejectsForeignSpace(t *testing.T) {
	sp, err := spacegen.Generate(5, corpusParams(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := bundle.Build("fp", sp, bundle.Options{Gamma: 4, Engines: []string{"CIndex"}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "b.isq")
	if err := b.WriteFile(path, false); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The header fingerprint sits at bytes 16..24 and is not covered by a
	// section CRC; corrupting it must still be caught, by the fingerprint
	// recomputation over the loaded space.
	data[17] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := bundle.LoadFile(path); err == nil {
		t.Fatal("foreign fingerprint loaded")
	}
}

// TestSnapshotSkipsUnbuiltEngines pins the partial-bundle path: a snapshot
// carrying a subset of engines loads exactly that subset.
func TestSnapshotSkipsUnbuiltEngines(t *testing.T) {
	sp, err := spacegen.Generate(7, corpusParams(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := bundle.Build("subset", sp, bundle.Options{Gamma: 4, Engines: []string{"CIndex", "VIPTree"}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "b.isq")
	if err := b.WriteFile(path, false); err != nil {
		t.Fatal(err)
	}
	r, err := snapshot.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Has(snapshot.TagIDIndex) || r.Has(snapshot.TagIPTree) {
		t.Fatal("unbuilt engine sections present")
	}
	loaded, err := bundle.Load(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Engines) != 2 || loaded.Engines["CIndex"] == nil || loaded.Engines["VIPTree"] == nil {
		t.Fatalf("loaded engines: %v", loaded.EngineList())
	}
}
