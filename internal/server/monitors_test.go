package server_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"indoorsq/internal/moving"
	"indoorsq/internal/query"
	"indoorsq/internal/server"
	"indoorsq/internal/snapshot/bundle"
	"indoorsq/internal/testspaces"
	"indoorsq/internal/workload"
)

func postJSON(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode POST %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func doJSON(t *testing.T, method, url string) int {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestMonitorEndpoints walks the single-venue continuous-query surface:
// registration (range and kNN), batched updates with events in the
// response, result reads, listing, unregistration, and the error mapping
// the sentinel errors promise (409 duplicate, 422 outdoors).
func TestMonitorEndpoints(t *testing.T) {
	ts, _ := newTestServer(t)

	// Range monitor in R1, kNN monitor next to it.
	var created struct {
		ID     int32 `json:"id"`
		Events []struct {
			Object int32 `json:"object"`
			Enter  bool  `json:"enter"`
		} `json:"events"`
	}
	if code := postJSON(t, ts.URL+"/v1/monitors",
		`{"id":1,"kind":"range","x":2.5,"y":8,"floor":0,"r":5,"t":0}`, &created); code != http.StatusCreated {
		t.Fatalf("register range: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/monitors",
		`{"id":2,"kind":"knn","x":2.5,"y":8,"floor":0,"k":2,"t":0}`, nil); code != http.StatusCreated {
		t.Fatalf("register knn: status %d", code)
	}

	// Error mapping: duplicate id is a conflict, outdoor point is
	// unprocessable, unknown kind and bad k are plain bad requests.
	cases := []struct {
		name string
		body string
		want int
	}{
		{"duplicate", `{"id":1,"x":2.5,"y":8,"r":5}`, http.StatusConflict},
		{"outdoors", `{"id":9,"x":-1000,"y":-1000,"r":5}`, http.StatusUnprocessableEntity},
		{"bad kind", `{"id":9,"kind":"nearest","x":2.5,"y":8}`, http.StatusBadRequest},
		{"bad k", `{"id":9,"kind":"knn","x":2.5,"y":8,"k":0}`, http.StatusBadRequest},
		{"bad body", `{`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if code := postJSON(t, ts.URL+"/v1/monitors", tc.body, nil); code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.want)
		}
	}

	// A batch: object 7 into R1 (covered by both monitors), object 8 into
	// R2. Part omitted — the server resolves the host partition.
	var applied struct {
		Applied int `json:"applied"`
		Events  []struct {
			Query  int32 `json:"query"`
			Object int32 `json:"object"`
			Enter  bool  `json:"enter"`
		} `json:"events"`
	}
	if code := postJSON(t, ts.URL+"/v1/updates",
		`{"updates":[{"id":7,"x":2.5,"y":9,"t":1},{"id":8,"x":7.5,"y":9,"t":2}]}`, &applied); code != http.StatusOK {
		t.Fatalf("updates: status %d", code)
	}
	if applied.Applied != 2 {
		t.Fatalf("applied %d updates, want 2", applied.Applied)
	}
	gotEnter := false
	for _, e := range applied.Events {
		if e.Query == 1 && e.Object == 7 && e.Enter {
			gotEnter = true
		}
	}
	if !gotEnter {
		t.Fatalf("no enter event for (query 1, object 7) in %v", applied.Events)
	}

	// An outdoor update without an explicit partition is unprocessable.
	if code := postJSON(t, ts.URL+"/v1/updates",
		`{"updates":[{"id":9,"x":-500,"y":-500,"t":3}]}`, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("outdoor update: status %d, want 422", code)
	}

	// Result read: range monitor holds object 7; the kNN monitor reports
	// neighbors with distances.
	var res struct {
		Objects   []int32          `json:"objects"`
		Neighbors []query.Neighbor `json:"neighbors"`
	}
	if code := getJSON(t, ts.URL+"/v1/monitors/1/result", &res); code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	if len(res.Objects) != 1 || res.Objects[0] != 7 {
		t.Fatalf("monitor 1 result %v, want [7]", res.Objects)
	}
	res.Objects, res.Neighbors = nil, nil
	if code := getJSON(t, ts.URL+"/v1/monitors/2/result", &res); code != http.StatusOK {
		t.Fatalf("knn result: status %d", code)
	}
	if len(res.Neighbors) == 0 || res.Neighbors[0].ID != 7 {
		t.Fatalf("monitor 2 neighbors %v, want object 7 first", res.Neighbors)
	}

	// Listing reports both monitors with kind and cardinality.
	var list struct {
		Monitors []moving.MonitorInfo `json:"monitors"`
		Objects  int                  `json:"objects"`
	}
	if code := getJSON(t, ts.URL+"/v1/monitors", &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if len(list.Monitors) != 2 || list.Objects != 2 {
		t.Fatalf("list %+v objects %d, want 2 monitors / 2 objects", list.Monitors, list.Objects)
	}
	if list.Monitors[0].Kind != "range" || list.Monitors[1].Kind != "knn" {
		t.Fatalf("monitor kinds %q/%q", list.Monitors[0].Kind, list.Monitors[1].Kind)
	}

	// Unknown monitor: result and delete are 404; delete is not idempotent.
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/monitors/99/result"); code != http.StatusNotFound {
		t.Fatalf("unknown result: status %d", code)
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/monitors/1"); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/monitors/1"); code != http.StatusNotFound {
		t.Fatalf("second delete: status %d", code)
	}
	// The freed id is immediately reusable.
	if code := postJSON(t, ts.URL+"/v1/monitors",
		`{"id":1,"x":2.5,"y":8,"r":5,"t":4}`, nil); code != http.StatusCreated {
		t.Fatalf("re-register freed id: status %d", code)
	}
}

// TestMonitorStreamNDJSON subscribes to a monitor's delta stream over HTTP
// and checks events arrive as ndjson lines as updates are applied. The
// subscription is established before the response header goes out, so once
// the client has the header no event can be lost.
func TestMonitorStreamNDJSON(t *testing.T) {
	ts, _ := newTestServer(t)
	if code := postJSON(t, ts.URL+"/v1/monitors",
		`{"id":5,"x":2.5,"y":8,"r":5,"t":0}`, nil); code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}

	resp, err := http.Get(ts.URL + "/v1/monitors/5/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}

	if code := postJSON(t, ts.URL+"/v1/updates",
		`{"updates":[{"id":7,"x":2.5,"y":9,"t":1}]}`, nil); code != http.StatusOK {
		t.Fatalf("update: status %d", code)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no stream line: %v", sc.Err())
	}
	var ev struct {
		Query  int32   `json:"query"`
		Object int32   `json:"object"`
		Enter  bool    `json:"enter"`
		T      float64 `json:"t"`
	}
	if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
		t.Fatalf("bad stream line %q: %v", sc.Text(), err)
	}
	if ev.Query != 5 || ev.Object != 7 || !ev.Enter || ev.T != 1 {
		t.Fatalf("stream event %+v, want enter of object 7 at t=1", ev)
	}

	// Unregistering the monitor ends the stream.
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/monitors/5"); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	if sc.Scan() {
		t.Fatalf("unexpected line after unregister: %q", sc.Text())
	}

	// Streaming an unknown monitor is a 404.
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/monitors/99/stream"); code != http.StatusNotFound {
		t.Fatalf("unknown stream: status %d", code)
	}
}

// TestMonitorSwapResets pins the generation contract: a snapshot swap
// retires all standing monitors (their door-distance fields were computed
// against the old topology) and the ids become free on the new generation.
func TestMonitorSwapResets(t *testing.T) {
	f := testspaces.NewStrip()
	tier := newStripTier(t, f, nil, "IDModel")
	ts := httptest.NewServer(server.NewTenantServer(tier).Handler())
	t.Cleanup(ts.Close)

	if code := postJSON(t, ts.URL+"/v1/monitors",
		`{"id":1,"x":2.5,"y":8,"r":5,"t":0}`, nil); code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/updates",
		`{"updates":[{"id":7,"x":2.5,"y":9,"t":1}]}`, nil); code != http.StatusOK {
		t.Fatalf("update: status %d", code)
	}

	f2 := testspaces.NewStrip()
	b2, err := bundle.Build("strip-v2", f2.Space, bundle.Options{Engines: []string{"IDModel"}, Gamma: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "strip-v2.isq")
	if err := b2.WriteFile(path, false); err != nil {
		t.Fatal(err)
	}
	if _, err := tier.SwapSnapshot("strip", path); err != nil {
		t.Fatal(err)
	}

	var list struct {
		Monitors []moving.MonitorInfo `json:"monitors"`
		Objects  int                  `json:"objects"`
	}
	if code := getJSON(t, ts.URL+"/v1/monitors", &list); code != http.StatusOK {
		t.Fatalf("list after swap: status %d", code)
	}
	if len(list.Monitors) != 0 || list.Objects != 0 {
		t.Fatalf("after swap: %d monitors %d objects, want 0/0", len(list.Monitors), list.Objects)
	}
	// The old generation's id registers cleanly — no stale 409.
	if code := postJSON(t, ts.URL+"/v1/monitors",
		`{"id":1,"x":2.5,"y":8,"r":5,"t":2}`, nil); code != http.StatusCreated {
		t.Fatalf("register after swap: status %d", code)
	}
}

// TestTenantMonitorEndpoints exercises the per-venue surface: streams are
// venue-scoped (the same monitor id registers independently on two venues),
// updates only touch their venue's monitors, and the sentinel error mapping
// holds behind the venue prefix.
func TestTenantMonitorEndpoints(t *testing.T) {
	tier := newTenantTier(t)
	s := server.NewTenantServer(tier)
	h := s.Handler()

	post := func(url, body string, v any) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, strings.NewReader(body)))
		if v != nil {
			if err := json.NewDecoder(rec.Body).Decode(v); err != nil {
				t.Fatalf("POST %s: decode: %v", url, err)
			}
		}
		return rec.Code
	}

	// One valid indoor point per venue.
	pts := map[string]string{}
	for _, id := range []string{"north", "south"} {
		v, ok := tier.Venue(id)
		if !ok {
			t.Fatalf("venue %s missing", id)
		}
		p, _ := workload.New(v.Space, 5).PointIn()
		pts[id] = fmt.Sprintf(`"x":%g,"y":%g,"floor":%d`, p.X, p.Y, p.Floor)
	}

	// The same monitor id on both venues: independent streams.
	for _, id := range []string{"north", "south"} {
		if code := post("/v1/venues/"+id+"/monitors",
			`{"id":1,`+pts[id]+`,"r":8,"t":0}`, nil); code != http.StatusCreated {
			t.Fatalf("register on %s: status %d", id, code)
		}
	}
	if code := post("/v1/venues/north/monitors",
		`{"id":1,`+pts["north"]+`,"r":8,"t":0}`, nil); code != http.StatusConflict {
		t.Fatalf("duplicate on north: status %d", code)
	}
	if code := post("/v1/venues/north/monitors",
		`{"id":2,"x":-900,"y":-900,"r":8}`, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("outdoors on north: status %d", code)
	}
	if code := post("/v1/venues/ghost/monitors",
		`{"id":1,"x":0,"y":0,"r":8}`, nil); code != http.StatusNotFound {
		t.Fatalf("unknown venue: status %d", code)
	}

	// An update on north reaches only north's monitor.
	var applied struct {
		Venue  string `json:"venue"`
		Events []struct {
			Query  int32 `json:"query"`
			Object int32 `json:"object"`
			Enter  bool  `json:"enter"`
		} `json:"events"`
	}
	if code := post("/v1/venues/north/updates",
		`{"updates":[{"id":3,`+pts["north"]+`,"t":1}]}`, &applied); code != http.StatusOK {
		t.Fatalf("north update: status %d", code)
	}
	if applied.Venue != "north" || len(applied.Events) != 1 || !applied.Events[0].Enter {
		t.Fatalf("north update response %+v, want one enter event", applied)
	}
	var res struct {
		Objects []int32 `json:"objects"`
	}
	tenantGetJSON(t, h, "/v1/venues/north/monitors/1/result", http.StatusOK, &res)
	if len(res.Objects) != 1 || res.Objects[0] != 3 {
		t.Fatalf("north monitor result %v, want [3]", res.Objects)
	}
	res.Objects = nil
	tenantGetJSON(t, h, "/v1/venues/south/monitors/1/result", http.StatusOK, &res)
	if len(res.Objects) != 0 {
		t.Fatalf("south monitor result %v, want empty", res.Objects)
	}

	var list struct {
		Monitors []moving.MonitorInfo `json:"monitors"`
	}
	tenantGetJSON(t, h, "/v1/venues/north/monitors", http.StatusOK, &list)
	if len(list.Monitors) != 1 || list.Monitors[0].Size != 1 {
		t.Fatalf("north listing %+v, want one monitor of size 1", list.Monitors)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/venues/south/monitors/1", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("delete south monitor: status %d", rec.Code)
	}
	tenantGetJSON(t, h, "/v1/venues/south/monitors/1/result", http.StatusNotFound, nil)
	// North is untouched by south's delete.
	tenantGetJSON(t, h, "/v1/venues/north/monitors/1/result", http.StatusOK, nil)
}

// TestMonitorResultConsistentUnderUpdates reads a kNN monitor's result over
// HTTP while another goroutine keeps moving objects through its top-k: every
// body's objects must be the sorted ids of its neighbors, i.e. both fields
// come from one state of the monitor. Run with -race -count=10.
func TestMonitorResultConsistentUnderUpdates(t *testing.T) {
	f := testspaces.NewStrip()
	h := server.NewTenantServer(newStripTier(t, f, nil, "IDModel")).Handler()
	serve := func(method, url, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, url, strings.NewReader(body)))
		return rec
	}
	if rec := serve(http.MethodPost, "/v1/monitors", `{"id":1,"kind":"knn","x":2.5,"y":8,"k":2}`); rec.Code != http.StatusCreated {
		t.Fatalf("register: status %d: %s", rec.Code, rec.Body)
	}

	// Every batch swaps the monitor's whole top two: objects 0 and 1 come
	// next to it while 2 and 3 leave for the far end of the hall, then the
	// other way round.
	near, far := []string{`"x":2.5,"y":9`, `"x":4,"y":7`}, []string{`"x":17,"y":5`, `"x":19,"y":5`}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			in, out := 2*(i%2), 2-2*(i%2)
			body := fmt.Sprintf(`{"updates":[{"id":%d,%s,"t":%d},{"id":%d,%s,"t":%d},{"id":%d,%s,"t":%d},{"id":%d,%s,"t":%d}]}`,
				in, near[0], 4*i+1, in+1, near[1], 4*i+2, out, far[0], 4*i+3, out+1, far[1], 4*i+4)
			if rec := serve(http.MethodPost, "/v1/updates", body); rec.Code != http.StatusOK {
				t.Errorf("updates: status %d: %s", rec.Code, rec.Body)
				return
			}
		}
	}()
	defer wg.Wait()
	defer close(done)

	for range 2000 {
		rec := serve(http.MethodGet, "/v1/monitors/1/result", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("result: status %d: %s", rec.Code, rec.Body)
		}
		var res struct {
			Objects   []int32          `json:"objects"`
			Neighbors []query.Neighbor `json:"neighbors"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		ids := make([]int32, 0, len(res.Neighbors))
		for _, nb := range res.Neighbors {
			ids = append(ids, nb.ID)
		}
		slices.Sort(ids)
		if !slices.Equal(ids, res.Objects) {
			t.Fatalf("torn result: objects %v, neighbors %v", res.Objects, res.Neighbors)
		}
	}
}

// TestStaircaseLandingUpdate posts a report without a partition on a
// staircase's upper landing: the server resolves the staircase, as /range
// does for the same point, and the update is applied (200 with the range
// monitor's enter event), not rejected as outdoors.
func TestStaircaseLandingUpdate(t *testing.T) {
	f := testspaces.NewTwoFloor()
	b, err := bundle.Build("twofloor", f.Space, bundle.Options{Engines: []string{"IDModel"}, Gamma: 4})
	if err != nil {
		t.Fatal(err)
	}
	tier, _ := newBundleTier(t, b, "IDModel", nil)
	ts := httptest.NewServer(server.NewTenantServer(tier).Handler())
	t.Cleanup(ts.Close)

	var rng any
	if code := getJSON(t, ts.URL+"/v1/range?x=21&y=5.5&floor=1&r=1", &rng); code != http.StatusOK {
		t.Fatalf("range on the upper landing: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/monitors",
		`{"id":1,"kind":"range","x":21,"y":5,"floor":1,"r":1,"t":0}`, nil); code != http.StatusCreated {
		t.Fatalf("register on the landing: status %d", code)
	}
	var applied struct {
		Applied int `json:"applied"`
		Events  []struct {
			Query  int32   `json:"query"`
			Object int32   `json:"object"`
			Enter  bool    `json:"enter"`
			T      float64 `json:"t"`
		} `json:"events"`
	}
	if code := postJSON(t, ts.URL+"/v1/updates",
		`{"updates":[{"id":7,"x":21,"y":5.5,"floor":1,"t":1}]}`, &applied); code != http.StatusOK {
		t.Fatalf("upper-landing update: status %d, want 200", code)
	}
	if applied.Applied != 1 || len(applied.Events) != 1 {
		t.Fatalf("applied %d, events %+v; want 1 and one enter event", applied.Applied, applied.Events)
	}
	if e := applied.Events[0]; e.Query != 1 || e.Object != 7 || !e.Enter || e.T != 1 {
		t.Fatalf("event %+v, want query 1 object 7 enter at t=1", e)
	}
}
