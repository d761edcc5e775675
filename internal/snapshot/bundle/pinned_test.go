package bundle_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"testing"

	"indoorsq/internal/idindex"
	"indoorsq/internal/indoor"
	"indoorsq/internal/snapshot/bundle"
	"indoorsq/internal/spacegen"
	"indoorsq/internal/testspaces"
)

// TestArtifactBytesPinned pins the artifact bytes (no warm pages) of two
// corpus venues built with all five engines to recorded sha256 sums, so a
// change to any engine's construction or to a section's encoding shows up
// as a mismatch. Seed 7 has one-way doors; seed 10 gets a one-way wing
// (testspaces.CloseWing), so its IDINDEX rows end in +Inf. Go may fuse
// multiply-adds on other architectures, so the sums hold on amd64 only.
func TestArtifactBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("sums recorded on amd64; GOARCH=%s may fuse multiply-adds", runtime.GOARCH)
	}
	for _, c := range []struct {
		seed int64
		wing bool
		sum  string
	}{
		{7, false, "d6b74a48b26103c7859f9b65d6f380313e70281e2802d2207b20543feee67e6d"},
		{10, true, "6e5f914f1fad15d90c219af100d25c0b7efbf98d5f5f36ab6704b78bab04c01e"},
	} {
		sp, err := spacegen.Generate(c.seed, corpusParams(c.seed))
		if err != nil {
			t.Fatal(err)
		}
		if c.wing {
			maxX := math.Inf(-1)
			for v := 0; v < sp.NumPartitions(); v++ {
				maxX = math.Max(maxX, sp.Partition(indoor.PartitionID(v)).MBR.MaxX)
			}
			if sp, err = testspaces.CloseWing(sp, 0.6*maxX); err != nil {
				t.Fatal(err)
			}
		}
		oneWay := false
		for d := 0; d < sp.NumDoors(); d++ {
			oneWay = oneWay || !sp.Door(indoor.DoorID(d)).Bidirectional()
		}
		b, err := bundle.Build("corpus", sp, bundle.Options{Gamma: 4})
		if err != nil {
			t.Fatalf("seed=%d: build: %v", c.seed, err)
		}
		ix := b.Engines["IDIndex"].(*idindex.Index)
		inf := false
		for i := 0; i < sp.NumDoors(); i++ {
			for j := 0; j < sp.NumDoors(); j++ {
				inf = inf || math.IsInf(ix.DoorDist(indoor.DoorID(i), indoor.DoorID(j)), 1)
			}
		}
		if !oneWay || inf != c.wing {
			t.Fatalf("seed=%d: one-way doors %v, +Inf matrix entries %v; want true, %v", c.seed, oneWay, inf, c.wing)
		}
		var buf bytes.Buffer
		if err := b.Write(bufio.NewWriter(&buf), false); err != nil {
			t.Fatalf("seed=%d: write: %v", c.seed, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != c.sum {
			t.Errorf("seed=%d: artifact sha256 %s, want %s (%d bytes)", c.seed, got, c.sum, buf.Len())
		}
	}
}
