package indoor

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"indoorsq/internal/geom"
	"indoorsq/internal/snapshot"
)

// incidenceSpace is a hallway with two rooms, each joined to it by one door.
func incidenceSpace(t *testing.T) *Space {
	t.Helper()
	b := NewBuilder("incidence", 1)
	rect := func(x0, y0, x1, y1 float64) geom.Polygon {
		return geom.RectPoly(geom.R(x0, y0, x1, y1))
	}
	hall := b.AddHallway(0, rect(0, 0, 10, 4))
	r1 := b.AddRoom(0, rect(0, 4, 5, 8))
	r2 := b.AddRoom(0, rect(5, 4, 10, 8))
	b.ConnectBoth(b.AddDoor(geom.Pt(2.5, 4), 0), hall, r1)
	b.ConnectBoth(b.AddDoor(geom.Pt(7.5, 4), 0), hall, r2)
	sp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// snapshotRoundTrip writes sp as a one-section snapshot (valid CRC) and loads
// it back.
func snapshotRoundTrip(t *testing.T, sp *Space) (*Space, error) {
	t.Helper()
	var buf bytes.Buffer
	w := snapshot.NewWriter(&buf, 0)
	sp.AppendTo(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := snapshot.NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return LoadSpace(r)
}

// TestLoadSpaceRejectsBadDoorIncidence corrupts one door's incidence on a
// built space before writing it, so the section CRC is valid, and expects
// LoadSpace to refuse the artifact instead of building a door-slot table
// that lookups would later index out of range.
func TestLoadSpaceRejectsBadDoorIncidence(t *testing.T) {
	cases := []struct {
		name, want string
		corrupt    func(sp *Space)
	}{
		{"one part", "connects 1 partitions", func(sp *Space) {
			sp.doors[0].Parts = sp.doors[0].Parts[:1]
		}},
		{"three parts", "connects 3 partitions", func(sp *Space) {
			sp.doors[0].Parts = append(slices.Clone(sp.doors[0].Parts), 2)
		}},
		{"part out of range", "references partition 99", func(sp *Space) {
			sp.doors[0].Parts = []PartitionID{sp.doors[0].Parts[0], 99}
		}},
		{"negative part", "references partition -1", func(sp *Space) {
			sp.doors[0].Parts = []PartitionID{-1, sp.doors[0].Parts[1]}
		}},
		{"missing from partition", "missing from the doors of partition", func(sp *Space) {
			v := &sp.parts[sp.doors[0].Parts[1]]
			v.Doors = slices.DeleteFunc(slices.Clone(v.Doors), func(d DoorID) bool { return d == 0 })
		}},
		{"foreign partition", "does not connect it", func(sp *Space) {
			// Door 0 joins the hallway (0) and room 1; claim room 2 instead.
			sp.doors[0].Parts = []PartitionID{0, 2}
		}},
	}
	if _, err := snapshotRoundTrip(t, incidenceSpace(t)); err != nil {
		t.Fatalf("clean space: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := incidenceSpace(t)
			tc.corrupt(sp)
			_, err := snapshotRoundTrip(t, sp)
			if err == nil {
				t.Fatal("LoadSpace accepted a corrupt door incidence")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q, want it to mention %q", err, tc.want)
			}
		})
	}
}

// TestDoorIndexMatchesDoorsSlice pins the slot table against a linear scan
// of every partition's Doors, for every (partition, door) pair, on a built
// and on a loaded space.
func TestDoorIndexMatchesDoorsSlice(t *testing.T) {
	built := incidenceSpace(t)
	loaded, err := snapshotRoundTrip(t, built)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range []*Space{built, loaded} {
		for v := range sp.parts {
			for d := -1; d <= len(sp.doors); d++ {
				want := slices.Index(sp.parts[v].Doors, DoorID(d))
				if got := sp.DoorIndex(PartitionID(v), DoorID(d)); got != want {
					t.Fatalf("DoorIndex(%d, %d) = %d, want %d", v, d, got, want)
				}
			}
		}
	}
}
