package bundle_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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
// Float64bits-equal IDINDEX distance matrix. Each built engine must also
// match NewEngine's for the same Options.
func TestRoundTripBitIdentical(t *testing.T) {
	dir := t.TempDir()
	for seed := int64(1); seed <= 12; seed++ {
		params := corpusParams(seed)
		sp, err := spacegen.Generate(seed, params)
		if err != nil {
			t.Fatalf("seed=%d: generate: %v", seed, err)
		}
		opt := bundle.Options{Gamma: 4}
		fresh, err := bundle.Build("corpus", sp, opt)
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
		pairs, err := gen.SPDPairs(context.Background(), 0.5, 4)
		if err != nil {
			t.Fatal(err)
		}

		for _, name := range bundle.EngineNames {
			fe, le := fresh.Engines[name], loaded.Engines[name]
			if fe == nil || le == nil {
				t.Fatalf("seed=%d: engine %s missing (%v/%v)", seed, name, fe, le)
			}
			ne, err := bundle.NewEngine(name, sp, opt)
			if err != nil {
				t.Fatalf("seed=%d: NewEngine(%s): %v", seed, name, err)
			}
			for _, other := range []struct {
				side string
				e    query.Engine
			}{{"loaded", le}, {"NewEngine", ne}} {
				if err := sameEngine(fe, other.e, objs, pts, pairs); err != nil {
					t.Fatalf("seed=%d %s: fresh vs %s: %v", seed, name, other.side, err)
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

// sameEngine requires b to match a bit-identically: same size accounting,
// same Range ids, same KNN neighbors with Float64bits-equal distances, and
// same SPD door sequences and Float64bits-equal path lengths.
func sameEngine(a, b query.Engine, objs []query.Object, pts []indoor.Point, pairs []workload.Pair) error {
	if a.SizeBytes() != b.SizeBytes() {
		return fmt.Errorf("size %d vs %d", a.SizeBytes(), b.SizeBytes())
	}
	a.SetObjects(objs)
	b.SetObjects(objs)
	var st query.Stats
	for _, p := range pts {
		ar, aerr := a.Range(p, 9, &st)
		br, berr := b.Range(p, 9, &st)
		if (aerr == nil) != (berr == nil) {
			return fmt.Errorf("Range errors %v vs %v", aerr, berr)
		}
		if !slices.Equal(ar, br) {
			return fmt.Errorf("Range %v vs %v", ar, br)
		}
		ak, aerr := a.KNN(p, 5, &st)
		bk, berr := b.KNN(p, 5, &st)
		if (aerr == nil) != (berr == nil) || len(ak) != len(bk) {
			return fmt.Errorf("KNN shape differs")
		}
		for i := range ak {
			if ak[i].ID != bk[i].ID || math.Float64bits(ak[i].Dist) != math.Float64bits(bk[i].Dist) {
				return fmt.Errorf("KNN[%d] %v vs %v", i, ak[i], bk[i])
			}
		}
	}
	for _, pr := range pairs {
		ap, aerr := a.SPD(pr.P, pr.Q, &st)
		bp, berr := b.SPD(pr.P, pr.Q, &st)
		if (aerr == nil) != (berr == nil) {
			return fmt.Errorf("SPD errors %v vs %v", aerr, berr)
		}
		if aerr == nil && (math.Float64bits(ap.Dist) != math.Float64bits(bp.Dist) || !slices.Equal(ap.Doors, bp.Doors)) {
			return fmt.Errorf("SPD %v vs %v", ap, bp)
		}
	}
	return nil
}

// TestNewEngineAll builds every listed engine by name and rejects an
// unknown one.
func TestNewEngineAll(t *testing.T) {
	sp, err := spacegen.Generate(3, corpusParams(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range bundle.EngineNames {
		eng, err := bundle.NewEngine(name, sp, bundle.Options{Gamma: 4})
		if err != nil {
			t.Fatalf("NewEngine(%s): %v", name, err)
		}
		if eng.Name() != name {
			t.Fatalf("engine name %q != %q", eng.Name(), name)
		}
	}
	if _, err := bundle.NewEngine("Bogus", sp, bundle.Options{}); err == nil {
		t.Fatal("unknown engine must error")
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

// TestArtifactBytesAcrossProcs builds one generated venue with all five
// engines at GOMAXPROCS 1 and 2, each over a freshly generated space (as two
// isqsnap processes would), and requires byte-identical artifacts, warm
// distance-cache pages included.
func TestArtifactBytesAcrossProcs(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	var arts [2][]byte
	for i, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		sp, err := spacegen.Generate(5, corpusParams(5))
		if err != nil {
			t.Fatal(err)
		}
		b, err := bundle.Build("corpus", sp, bundle.Options{Gamma: 4})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: build: %v", procs, err)
		}
		var buf bytes.Buffer
		if err := b.Write(bufio.NewWriter(&buf), true); err != nil {
			t.Fatalf("GOMAXPROCS=%d: write: %v", procs, err)
		}
		arts[i] = buf.Bytes()
	}
	if !bytes.Equal(arts[0], arts[1]) {
		t.Fatalf("artifact differs between GOMAXPROCS 1 (%d bytes) and 2 (%d bytes)", len(arts[0]), len(arts[1]))
	}
}
