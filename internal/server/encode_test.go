package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"indoorsq/internal/indoor"
	"indoorsq/internal/query"
)

// The reference shapes of the query bodies: what the append encoders must
// reproduce byte for byte through encoding/json.
type rangeResponse struct {
	Objects      []int32 `json:"objects"`
	VisitedDoors int     `json:"visitedDoors"`
	Engine       string  `json:"engine"`
	Epoch        uint64  `json:"epoch"`
}

type knnResponse struct {
	Neighbors    []query.Neighbor `json:"neighbors"`
	VisitedDoors int              `json:"visitedDoors"`
	Engine       string           `json:"engine"`
	Epoch        uint64           `json:"epoch"`
}

type spdResponse struct {
	Dist         float64      `json:"dist"`
	Doors        []int32      `json:"doors"`
	Geom         [][3]float64 `json:"geometry"`
	VisitedDoors int          `json:"visitedDoors"`
	Engine       string       `json:"engine"`
	Epoch        uint64       `json:"epoch"`
}

// edgeFloats are the values where encoding/json's float format switches or
// refuses: signed zero, both sides of the 'e' thresholds, the one-digit
// negative exponent it unpads, subnormals, the extremes, NaN and ±Inf.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 1e-7, -1e-7, 9.999999e-7,
	1e20, 1e21, -1e21, 1.5e300, 5e-324, 2.2250738585072014e-308,
	math.MaxFloat64, math.SmallestNonzeroFloat64, 123456789.125,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// fuzzBytes hands out fixed-width values from the fuzz input, zeros once it
// runs dry.
type fuzzBytes []byte

func (f *fuzzBytes) u64() uint64 {
	var v [8]byte
	n := copy(v[:], *f)
	*f = (*f)[n:]
	return binary.LittleEndian.Uint64(v[:])
}

// float is an edge value for a small selector and raw bits otherwise, so
// both the thresholds and arbitrary bit patterns are reached.
func (f *fuzzBytes) float() float64 {
	v := f.u64()
	if sel := v & 0xff; sel < uint64(len(edgeFloats)) && v>>8&1 == 0 {
		return edgeFloats[sel]
	}
	return math.Float64frombits(v)
}

// doorTable is a doorPointer over a fixed slice.
type doorTable []indoor.Point

func (t doorTable) DoorPoint(d indoor.DoorID) indoor.Point { return t[d] }

// FuzzQueryResponseJSON holds each append encoder to its contract: its
// output equals json.Marshal of the equivalent struct plus "\n", or both
// fail, and a failure answers 500 and counts an encode error.
func FuzzQueryResponseJSON(f *testing.F) {
	f.Add([]byte{}, "IDModel", uint64(1), 0)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, "VIPTree", uint64(math.MaxUint64), -3)
	f.Add(bytes.Repeat([]byte{0xff}, 64), "a<b>&\"c\"\\\n\t\u2028é\xff", uint64(0), 1<<40)
	for i := range edgeFloats {
		seed := make([]byte, 0, 9*8)
		seed = append(seed, 3, 0, 0, 0, 0, 0, 0, 0) // three of each list
		for range 8 {
			seed = binary.LittleEndian.AppendUint64(seed, uint64(i))
		}
		f.Add(seed, "CIndex", uint64(i), i)
	}
	f.Fuzz(func(t *testing.T, data []byte, engine string, epoch uint64, visited int) {
		in := fuzzBytes(data)
		n := int(in.u64() % 8)
		m := queryMeta{visitedDoors: visited, engine: engine, epoch: epoch}

		ids := make([]int32, n)
		nn := make([]query.Neighbor, n)
		doors := make([]indoor.DoorID, n)
		table := make(doorTable, n)
		for i := range n {
			ids[i] = int32(in.u64())
			nn[i] = query.Neighbor{ID: int32(in.u64()), Dist: in.float()}
			doors[i] = indoor.DoorID(i)
			table[i] = indoor.Point{X: in.float(), Y: in.float(), Floor: int16(in.u64())}
		}
		src := indoor.Point{X: in.float(), Y: in.float(), Floor: int16(in.u64())}
		dst := indoor.Point{X: in.float(), Y: in.float(), Floor: int16(in.u64())}
		dist := in.float()

		check := func(name string, got []byte, ok bool, ref any) {
			t.Helper()
			want, err := json.Marshal(ref)
			if (err == nil) != ok {
				t.Fatalf("%s: encoder ok=%v, encoding/json err=%v", name, ok, err)
			}
			if !ok {
				s := &TenantServer{}
				rec := httptest.NewRecorder()
				s.writeBody(rec, http.StatusOK, got, ok)
				if rec.Code != http.StatusInternalServerError || s.EncodeErrors() != 1 {
					t.Fatalf("%s: failed encode answered %d with %d encode errors", name, rec.Code, s.EncodeErrors())
				}
				return
			}
			if want = append(want, '\n'); !bytes.Equal(got, want) {
				t.Fatalf("%s:\n got %s\nwant %s", name, got, want)
			}
		}

		check("range", appendRange(nil, ids, m), true,
			rangeResponse{Objects: ids, VisitedDoors: visited, Engine: engine, Epoch: epoch})

		got, ok := appendKNN(nil, nn, m)
		check("knn", got, ok, knnResponse{Neighbors: nn, VisitedDoors: visited, Engine: engine, Epoch: epoch})

		ref := spdResponse{Dist: dist, Doors: make([]int32, 0, n), VisitedDoors: visited, Engine: engine, Epoch: epoch}
		ref.Geom = append(ref.Geom, [3]float64{src.X, src.Y, float64(src.Floor)})
		for _, d := range doors {
			ref.Doors = append(ref.Doors, int32(d))
			p := table[d]
			ref.Geom = append(ref.Geom, [3]float64{p.X, p.Y, float64(p.Floor)})
		}
		ref.Geom = append(ref.Geom, [3]float64{dst.X, dst.Y, float64(dst.Floor)})
		got, ok = appendSPD(nil, dist, doors, src, dst, table, m)
		check("spd", got, ok, ref)
	})
}
