package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"indoorsq/internal/moving"
	"indoorsq/internal/query"
)

// perfbenchBody is an update batch shaped like the ingest benchmark's: 64
// reports marshalled from a struct with id, x, y, floor and t.
func perfbenchBody() []byte {
	type report struct {
		ID    int32   `json:"id"`
		X     float64 `json:"x"`
		Y     float64 `json:"y"`
		Floor int16   `json:"floor"`
		T     float64 `json:"t"`
	}
	rng := rand.New(rand.NewSource(1))
	batch := make([]report, 64)
	for i := range batch {
		batch[i] = report{ID: rng.Int31n(20000), X: rng.Float64() * 300, Y: rng.Float64() * 120,
			Floor: int16(rng.Intn(3)), T: 1000 + float64(i)*1e-4}
	}
	b, err := json.Marshal(map[string]any{"updates": batch})
	if err != nil {
		panic(err)
	}
	return b
}

// updateBodySeeds are bodies on both sides of the scanner's canonical
// subset.
var updateBodySeeds = []string{
	string(perfbenchBody()),
	`{"updates":[]}`,
	`{"updates":null}`,
	`{"updates":[{}]}`,
	`{"updates":[{"id":1,"x":2.5,"y":9,"floor":0,"t":1,"part":null}]}`,
	`{"updates":[{"id":1,"x":2.5,"y":9,"t":1,"part":3}]}`,
	`{"updates":[{"id":1,"part":3,"part":null},{"part":null,"part":-4}]}`,
	`{"updates":[{"ID":1,"X":2.5,"Y":9,"Floor":1,"T":1,"Part":2}]}`,
	`{"Updates":[{"id":1}]}`,
	`{"updates":[{"\u0069d":1,"x\u0000":2}]}`,
	`{"updates":[{"id":1,"speed":3}],"extra":true}`,
	`{"updates":[{"id":2147483647},{"id":-2147483648}]}`,
	`{"updates":[{"id":2147483648}]}`,
	`{"updates":[{"floor":32767},{"floor":-32768}]}`,
	`{"updates":[{"floor":32768}]}`,
	`{"updates":[{"part":2147483648}]}`,
	`{"updates":[{"id":-0,"x":-0,"y":-0.0,"floor":-0,"t":-0e0}]}`,
	`{"updates":[{"id":1.0}]}`,
	`{"updates":[{"id":1e2}]}`,
	`{"updates":[{"x":1e2,"y":1E-3,"t":-2.5e+10}]}`,
	`{"updates":[{"x":1e400}]}`,
	`{"updates":[{"x":1e-400,"y":4.9e-324}]}`,
	`{"updates":[{"x":01}]}`,
	`{"updates":[{"x":.5}]}`,
	`{"updates":[{"x":+1}]}`,
	`{"updates":[{"x":null,"id":null,"part":null}]}`,
	`{"updates":[{"x":"1"}]}`,
	" \t\r\n{ \"updates\" :\n[ {\t\"id\" : 1 ,\"x\":2 } ,{ } ] }\r\n ",
	"{\"updates\":[{\"id\":1}]}\v",
	`{"updates":[{"id":1}]}{"updates":[]}`,
	`{"updates":[{"id":1}]} x`,
	`{"updates":[{"id":1},]}`,
	`{"updates":[{"id":1,}]}`,
	`{"updates":[{"id":1}]`,
	`{"updates":[{"id":1}],"updates":[{"x":2}]}`,
	``,
	`   `,
	`[]`,
	`null`,
}

// eventsJSON is the wire form of evs the update and monitor-create bodies
// carried through encoding/json.
func eventsJSON(evs []moving.Event) []eventJSON {
	out := make([]eventJSON, len(evs))
	for i, e := range evs {
		out[i] = eventJSON{Query: e.Query, Object: e.Object, Enter: e.Enter, T: e.T}
	}
	return out
}

// FuzzUpdatesBody holds the ingest path to encoding/json, which stays the
// reference: decodeUpdateBody must give what json.Unmarshal gives the same
// bytes, or both fail; and the update, monitor-create and monitor-result
// encoders, fed events, ids and neighbors drawn from the same bytes, must
// equal json.Marshal of the maps those bodies were built from plus "\n",
// or both fail.
func FuzzUpdatesBody(f *testing.F) {
	for i, s := range updateBodySeeds {
		f.Add([]byte(s), "depot", uint64(i))
	}
	f.Add([]byte(`{"updates":[{"id":7,"x":1,"y":2,"t":3}]}`), "a<b>&\"c\"\\\n\u2028é\xff", uint64(math.MaxUint64))
	for i := range edgeFloats {
		seed := []byte{4, 0, 0, 0, 0, 0, 0, 0}
		for range 16 {
			seed = append(seed, byte(i), 0, 0, 0, 0, 0, 0, 0)
		}
		f.Add(seed, "CPH", uint64(i))
	}
	f.Fuzz(func(t *testing.T, body []byte, venue string, epoch uint64) {
		var got, want updateRequest
		gotErr := decodeUpdateBody(body, &got)
		wantErr := json.Unmarshal(body, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: decode err %v, encoding/json err %v", body, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decoded %s, encoding/json %s", body, dump(got), dump(want))
		}

		in := fuzzBytes(body)
		n := int(in.u64() % 8)
		evs := make([]moving.Event, n)
		ids := make([]int32, n)
		nn := make([]query.Neighbor, n)
		for i := range n {
			v := in.u64()
			evs[i] = moving.Event{Query: int32(v), Object: int32(v >> 32), Enter: v&1 == 0, T: in.float()}
			ids[i] = int32(in.u64())
			nn[i] = query.Neighbor{ID: int32(in.u64()), Dist: in.float()}
		}
		id := int32(epoch)

		check := func(name string, got []byte, ok bool, ref map[string]any) {
			t.Helper()
			want, err := json.Marshal(ref)
			if (err == nil) != ok {
				t.Fatalf("%s: encoder ok=%v, encoding/json err=%v", name, ok, err)
			}
			if want = append(want, '\n'); ok && !bytes.Equal(got, want) {
				t.Fatalf("%s:\n got %s\nwant %s", name, got, want)
			}
		}
		b, ok := appendUpdates(nil, n, evs, epoch, venue)
		check("updates", b, ok, map[string]any{"venue": venue, "epoch": epoch, "applied": n, "events": eventsJSON(evs)})
		b, ok = appendMonitorCreated(nil, epoch, evs, id, venue)
		check("created", b, ok, map[string]any{"venue": venue, "epoch": epoch, "id": id, "events": eventsJSON(evs)})
		b, ok = appendMonitorResult(nil, epoch, id, ids, nil, venue)
		check("range result", b, ok, map[string]any{"venue": venue, "epoch": epoch, "id": id, "objects": ids})
		b, ok = appendMonitorResult(nil, epoch, id, ids, nn, venue)
		check("knn result", b, ok, map[string]any{"venue": venue, "epoch": epoch, "id": id, "objects": ids, "neighbors": nn})
	})
}

// dump prints a decoded batch with its part values rather than pointers.
func dump(req updateRequest) string {
	if req.Updates == nil {
		return "nil"
	}
	var b bytes.Buffer
	for _, u := range req.Updates {
		part := "nil"
		if u.Part != nil {
			part = fmt.Sprint(*u.Part)
		}
		fmt.Fprintf(&b, "{%d %v %v %d %v %s}", u.ID, u.X, u.Y, u.Floor, u.T, part)
	}
	return b.String()
}

// TestScanUpdatesSubset pins which bodies take the scanner and which fall
// back to encoding/json.
func TestScanUpdatesSubset(t *testing.T) {
	canonical := []string{
		string(perfbenchBody()),
		`{"updates":[]}`,
		`{"updates":[{}]}`,
		`{"updates":[{"id":1,"x":2.5,"y":9,"floor":0,"t":1,"part":null},{"part":3,"t":-0.5e-3}]}`,
		" {\"updates\" :[ {\"id\":-0 } ]}\n",
	}
	for _, s := range canonical {
		if !scanUpdates([]byte(s), &updateRequest{}) {
			t.Errorf("%q: scanner refused a canonical body", s)
		}
	}
	fallback := []string{
		`{"updates":null}`,
		`{"Updates":[]}`,
		`{"updates":[{"ID":1}]}`,
		`{"updates":[{"id":1,"speed":3}]}`,
		`{"updates":[{"id":1.0}]}`,
		`{"updates":[{"floor":32768}]}`,
		`{"updates":[{"x":null}]}`,
		`{"updates":[{"x":1e400}]}`,
		`{"updates":[]}x`,
	}
	for _, s := range fallback {
		if scanUpdates([]byte(s), &updateRequest{}) {
			t.Errorf("%q: scanner accepted a body outside its subset", s)
		}
	}
}
