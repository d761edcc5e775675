package server_test

import (
	"net/http/httptest"
	"testing"
	"time"

	"indoorsq/internal/query"
	"indoorsq/internal/server"
	"indoorsq/internal/testspaces"
)

// newCtxServer builds a strip-venue server and returns it with its test
// listener, so tests can set timeouts and budgets.
func newCtxServer(t *testing.T) (*server.TenantServer, *httptest.Server) {
	t.Helper()
	f := testspaces.NewStrip()
	srv := server.NewTenantServer(newStripTier(t, f, stripObjects(f), "IDModel"))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestEndpointTimeout504 asserts an endpoint whose deadline already expired
// answers 504 with the partial-progress payload.
func TestEndpointTimeout504(t *testing.T) {
	srv, ts := newCtxServer(t)
	srv.SetTimeout("spd", time.Nanosecond)

	var e struct {
		Error        string `json:"error"`
		VisitedDoors *int   `json:"visitedDoors"`
	}
	if code := getJSON(t, ts.URL+"/v1/route?x=2.5&y=8&x2=7.5&y2=9", &e); code != 504 {
		t.Fatalf("status %d, want 504 (%+v)", code, e)
	}
	if e.Error == "" || e.VisitedDoors == nil {
		t.Fatalf("payload missing error/progress: %+v", e)
	}

	// Other endpoints are unaffected by the route-only timeout.
	var resp struct {
		Objects []int32 `json:"objects"`
	}
	if code := getJSON(t, ts.URL+"/v1/range?x=2.5&y=8&r=4", &resp); code != 200 {
		t.Fatalf("range status %d, want 200", code)
	}

	// Removing the timeout restores the endpoint.
	srv.SetTimeout("spd", 0)
	var ok map[string]any
	if code := getJSON(t, ts.URL+"/v1/route?x=2.5&y=8&x2=7.5&y2=9", &ok); code != 200 {
		t.Fatalf("route status %d after timeout removal, want 200", code)
	}
}

// TestGenerousTimeoutAnswers asserts a sane deadline leaves answers intact.
func TestGenerousTimeoutAnswers(t *testing.T) {
	srv, ts := newCtxServer(t)
	for _, ep := range []string{"range", "knn", "spd"} {
		srv.SetTimeout(ep, time.Minute)
	}
	var rr struct {
		Objects []int32 `json:"objects"`
	}
	if code := getJSON(t, ts.URL+"/v1/range?x=2.5&y=8&r=4", &rr); code != 200 || len(rr.Objects) != 2 {
		t.Fatalf("range = %d / %v", code, rr.Objects)
	}
	var kr struct {
		Neighbors []query.Neighbor `json:"neighbors"`
	}
	if code := getJSON(t, ts.URL+"/v1/knn?x=2.5&y=8&k=2", &kr); code != 200 || len(kr.Neighbors) != 2 {
		t.Fatalf("knn = %d / %v", code, kr.Neighbors)
	}
	var pr struct {
		Dist float64 `json:"dist"`
	}
	if code := getJSON(t, ts.URL+"/v1/route?x=2.5&y=8&x2=7.5&y2=9", &pr); code != 200 || pr.Dist != 10 {
		t.Fatalf("route = %d / %+v", code, pr)
	}
}

// TestBudget422 asserts an exhausted admission budget answers 422 and
// reports how far the query got.
func TestBudget422(t *testing.T) {
	srv, ts := newCtxServer(t)
	srv.SetBudget(query.Budget{MaxVisitedDoors: 1})

	var e struct {
		Error        string `json:"error"`
		VisitedDoors *int   `json:"visitedDoors"`
		WorkBytes    *int64 `json:"workBytes"`
	}
	// R1 -> R2 crosses two doors, so a one-door budget must trip.
	if code := getJSON(t, ts.URL+"/v1/route?x=2.5&y=8&x2=7.5&y2=9", &e); code != 422 {
		t.Fatalf("status %d, want 422 (%+v)", code, e)
	}
	if e.VisitedDoors == nil || *e.VisitedDoors < 1 {
		t.Fatalf("partial progress missing: %+v", e)
	}

	// Clearing the budget restores the endpoint.
	srv.SetBudget(query.Budget{})
	var pr struct {
		Dist float64 `json:"dist"`
	}
	if code := getJSON(t, ts.URL+"/v1/route?x=2.5&y=8&x2=7.5&y2=9", &pr); code != 200 || pr.Dist != 10 {
		t.Fatalf("route after budget removal = %d / %+v, want 200 / 10", code, pr)
	}
}

// TestInfoReportsEncodeErrors asserts the encode-failure counter is exposed
// (and zero on a healthy server).
func TestInfoReportsEncodeErrors(t *testing.T) {
	srv, ts := newCtxServer(t)
	var info map[string]any
	if code := getJSON(t, ts.URL+"/v1/info", &info); code != 200 {
		t.Fatalf("info status %d", code)
	}
	if v, ok := info["encodeErrors"]; !ok || v.(float64) != 0 {
		t.Fatalf("encodeErrors = %v", info["encodeErrors"])
	}
	if srv.EncodeErrors() != 0 {
		t.Fatalf("EncodeErrors = %d", srv.EncodeErrors())
	}
}
