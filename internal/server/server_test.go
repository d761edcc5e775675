package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"indoorsq/internal/indoor"
	"indoorsq/internal/query"
	"indoorsq/internal/server"
	"indoorsq/internal/snapshot/bundle"
	"indoorsq/internal/tenant"
	"indoorsq/internal/testspaces"
)

// stripObjects are the strip fixture's hand-placed POIs.
func stripObjects(f *testspaces.Strip) []query.Object {
	return []query.Object{
		{ID: 1, Loc: indoor.At(2.5, 9, 0), Part: f.R1},
		{ID: 2, Loc: indoor.At(7.5, 9, 0), Part: f.R2},
		{ID: 3, Loc: indoor.At(1, 5, 0), Part: f.Hall},
	}
}

// newStripTier boots a one-venue tier "strip" over the fixture serving the
// given engines and objects, with every query class pinned to the first
// engine (the single-venue default).
func newStripTier(t *testing.T, f *testspaces.Strip, objs []query.Object, engines ...string) *tenant.Tier {
	t.Helper()
	b, err := bundle.Build("strip", f.Space, bundle.Options{Engines: engines, Gamma: 4})
	if err != nil {
		t.Fatal(err)
	}
	tier, _ := newBundleTier(t, b, engines[0], objs)
	return tier
}

func newTestServer(t *testing.T) (*httptest.Server, *testspaces.Strip) {
	t.Helper()
	f := testspaces.NewStrip()
	srv := server.NewTenantServer(newStripTier(t, f, stripObjects(f), "IDModel", "VIPTree"))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, f
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

func TestInfo(t *testing.T) {
	ts, _ := newTestServer(t)
	var info map[string]any
	if code := getJSON(t, ts.URL+"/v1/info", &info); code != 200 {
		t.Fatalf("status %d", code)
	}
	if info["venue"] != "strip" || info["default"] != "IDModel" {
		t.Fatalf("info = %v", info)
	}
	if int(info["partitions"].(float64)) != 8 {
		t.Fatalf("partitions = %v", info["partitions"])
	}
	// The reach section reflects the summaries built by the engines above.
	rsec, ok := info["reach"].(map[string]any)
	if !ok {
		t.Fatalf("info has no reach section: %v", info)
	}
	if rsec["sccs"].(float64) <= 0 || rsec["bytes"].(float64) <= 0 {
		t.Fatalf("reach section not populated: %v", rsec)
	}
}

func TestRangeEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	var resp struct {
		Objects      []int32 `json:"objects"`
		VisitedDoors int     `json:"visitedDoors"`
	}
	url := ts.URL + "/v1/range?x=2.5&y=8&r=4"
	if code := getJSON(t, url, &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(resp.Objects) != 2 || resp.Objects[0] != 1 || resp.Objects[1] != 3 {
		t.Fatalf("objects = %v", resp.Objects)
	}

	// Both engines agree.
	var resp2 struct {
		Objects []int32 `json:"objects"`
	}
	if code := getJSON(t, url+"&engine=VIPTree", &resp2); code != 200 {
		t.Fatal("VIPTree request failed")
	}
	if fmt.Sprint(resp2.Objects) != fmt.Sprint(resp.Objects) {
		t.Fatalf("engines disagree: %v vs %v", resp2.Objects, resp.Objects)
	}
}

func TestKNNEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	var resp struct {
		Neighbors []struct {
			ID   int32   `json:"ID"`
			Dist float64 `json:"Dist"`
		} `json:"neighbors"`
	}
	if code := getJSON(t, ts.URL+"/v1/knn?x=2.5&y=8&k=2", &resp); code != 200 {
		t.Fatal("knn failed")
	}
	if len(resp.Neighbors) != 2 || resp.Neighbors[0].ID != 1 {
		t.Fatalf("neighbors = %v", resp.Neighbors)
	}
}

func TestRouteEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	var resp struct {
		Dist  float64      `json:"dist"`
		Doors []int32      `json:"doors"`
		Geom  [][3]float64 `json:"geometry"`
	}
	url := ts.URL + "/v1/route?x=2.5&y=8&x2=7.5&y2=9"
	if code := getJSON(t, url, &resp); code != 200 {
		t.Fatal("route failed")
	}
	if resp.Dist != 10 || len(resp.Doors) != 2 {
		t.Fatalf("route = %+v", resp)
	}
	if len(resp.Geom) != 4 { // p, two doors, q
		t.Fatalf("geometry = %v", resp.Geom)
	}
}

func TestPartitionsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	var parts []struct {
		ID   int32  `json:"id"`
		Kind string `json:"kind"`
	}
	if code := getJSON(t, ts.URL+"/v1/partitions?floor=0", &parts); code != 200 {
		t.Fatal("partitions failed")
	}
	if len(parts) != 8 {
		t.Fatalf("got %d partitions", len(parts))
	}
	halls := 0
	for _, p := range parts {
		if p.Kind == "hallway" {
			halls++
		}
	}
	if halls != 1 {
		t.Fatalf("halls = %d", halls)
	}
}

func TestErrorStatuses(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		url  string
		want int
	}{
		{"/v1/range?x=2.5&y=8&r=4&engine=Nope", 404},
		{"/v1/range?y=8&r=4", 400},
		{"/v1/range?x=2.5&y=8", 400},
		{"/v1/range?x=-99&y=-99&r=4", 422}, // outdoors
		{"/v1/knn?x=2.5&y=8&k=-1", 400},
		// k=0 can answer nothing: the one k rule (exec) rejects it.
		{"/v1/knn?x=2.5&y=8&k=0", 400},
		{"/v1/trace?op=knn&x=2.5&y=8&k=0", 400},
		{"/v1/route?x=2.5&y=8", 400},
		{"/v1/route?x=2.5&y=8&x2=-99&y2=-99", 422},
		{"/v1/partitions?floor=zzz", 400},
		// A NaN radius passes a plain `r < 0` check; it must be a 400.
		{"/v1/range?x=2.5&y=8&r=NaN", 400},
		{"/v1/trace?op=range&x=2.5&y=8&r=NaN", 400},
		// Floors outside int16 are rejected, not wrapped onto floor 0.
		{"/v1/range?x=2.5&y=8&r=4&floor=65536", 400},
		{"/v1/route?x=2.5&y=8&x2=7.5&y2=9&floor2=-32769", 400},
		{"/v1/partitions?floor=65536", 400},
	}
	for _, c := range cases {
		var e map[string]any
		if code := getJSON(t, ts.URL+c.url, &e); code != c.want {
			t.Errorf("%s: status %d, want %d (%v)", c.url, code, c.want, e)
		}
	}
}

// TestRangeInfiniteRadius pins r=Inf as "every reachable object".
func TestRangeInfiniteRadius(t *testing.T) {
	ts, _ := newTestServer(t)
	var resp struct {
		Objects []int32 `json:"objects"`
	}
	if code := getJSON(t, ts.URL+"/v1/range?x=2.5&y=8&r=Inf", &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if fmt.Sprint(resp.Objects) != "[1 2 3]" {
		t.Fatalf("objects = %v, want all three", resp.Objects)
	}
}

// TestKNNHugeKAllocatesByObjects asks every engine for k far beyond the
// object count: the answer is all three objects, and the request must not
// allocate in proportion to k.
func TestKNNHugeKAllocatesByObjects(t *testing.T) {
	f := testspaces.NewStrip()
	engines := []string{"IDModel", "IDIndex", "CIndex", "IPTree", "VIPTree"}
	srv := server.NewTenantServer(newStripTier(t, f, stripObjects(f), engines...))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	var resp struct {
		Neighbors []query.Neighbor `json:"neighbors"`
	}
	for _, name := range engines {
		url := ts.URL + "/v1/knn?x=2.5&y=8&k=50000000&engine=" + name
		getJSON(t, url, &resp) // warm lazy caches and connections
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		code := getJSON(t, url, &resp)
		runtime.ReadMemStats(&after)
		if code != 200 || len(resp.Neighbors) != 3 {
			t.Fatalf("%s: status %d, %d neighbors, want 200 with 3", name, code, len(resp.Neighbors))
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Fatalf("%s: k=50000000 allocated %d bytes, want < 1 MiB", name, d)
		}
	}
}

func TestServerValidation(t *testing.T) {
	f := testspaces.NewStrip()
	empty := &bundle.Bundle{Name: "x", Space: f.Space, Gamma: 4}
	if _, err := tenant.New([]tenant.VenueSpec{{ID: "x", Bundle: empty}}, tenant.Options{}); err == nil {
		t.Fatal("no engines must fail")
	}
	v, _ := newStripTier(t, f, nil, "IDModel").Venue("strip")
	if err := v.Router().Pin("", "B"); err == nil {
		t.Fatal("bad default must fail")
	}
}
