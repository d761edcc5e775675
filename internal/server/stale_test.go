package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"indoorsq/internal/snapshot/bundle"
	"indoorsq/internal/spacegen"
	"indoorsq/internal/tenant"
	"indoorsq/internal/workload"
)

// TestStaleGenerationCannotTouchNewStream is the regression test for the
// generation-scoped stream: a request that loaded a venue generation before
// a swap and reaches the monitor handlers after it must answer 409 from the
// retired stream, and must neither close nor write the stream of the
// generation now serving — its monitors and objects stay exactly as the
// post-swap traffic left them.
func TestStaleGenerationCannotTouchNewStream(t *testing.T) {
	sp, err := spacegen.Generate(31, spacegen.Params{Rows: 2, Cols: 3}.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	b, err := bundle.Build("v", sp, bundle.Options{Engines: []string{"IDModel"}, Gamma: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v.isq")
	if err := b.WriteFile(path, false); err != nil {
		t.Fatal(err)
	}
	tier, err := tenant.New([]tenant.VenueSpec{{ID: "v", Bundle: b, Snapshot: path}}, tenant.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewTenantServer(tier)
	h := s.Handler()
	serve := func(method, url, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, url, strings.NewReader(body)))
		return rec
	}

	vOld, _ := tier.Venue("v")
	// A path-less swap reloads the venue's own snapshot.
	if rec := serve(http.MethodPost, "/v1/venues/v/swap", ""); rec.Code != http.StatusOK {
		t.Fatalf("swap: %d: %s", rec.Code, rec.Body.String())
	}
	vNew, _ := tier.Venue("v")
	if vNew == vOld || vNew.Epoch() != vOld.Epoch()+1 {
		t.Fatalf("swap published epoch %d over %d", vNew.Epoch(), vOld.Epoch())
	}

	p, _ := workload.New(sp, 5).PointIn()
	at := fmt.Sprintf(`"x":%g,"y":%g,"floor":%d`, p.X, p.Y, p.Floor)
	if rec := serve(http.MethodPost, "/v1/venues/v/monitors", `{"id":1,`+at+`,"r":1000}`); rec.Code != http.StatusCreated {
		t.Fatalf("register on the new generation: %d: %s", rec.Code, rec.Body.String())
	}
	if rec := serve(http.MethodPost, "/v1/venues/v/updates", `{"updates":[{"id":7,`+at+`,"t":1}]}`); rec.Code != http.StatusOK {
		t.Fatalf("update on the new generation: %d: %s", rec.Code, rec.Body.String())
	}

	// Requests still holding the pre-swap generation.
	stale := func(name string, handle venueHandler, method, url, body string, pathValues ...string) {
		t.Helper()
		req := httptest.NewRequest(method, url, strings.NewReader(body))
		for i := 0; i+1 < len(pathValues); i += 2 {
			req.SetPathValue(pathValues[i], pathValues[i+1])
		}
		rec := httptest.NewRecorder()
		handle(rec, req, vOld)
		if rec.Code != http.StatusConflict {
			t.Fatalf("stale %s: status %d, want 409: %s", name, rec.Code, rec.Body.String())
		}
	}
	stale("update", s.handleUpdates, http.MethodPost, "/v1/venues/v/updates",
		`{"updates":[{"id":8,`+at+`,"t":2}]}`)
	stale("monitor read", s.handleMonitorResult, http.MethodGet, "/v1/venues/v/monitors/1/result", "", "mid", "1")
	stale("monitor list", s.handleMonitorList, http.MethodGet, "/v1/venues/v/monitors", "")
	stale("monitor create", s.handleMonitorCreate, http.MethodPost, "/v1/venues/v/monitors", `{"id":2,`+at+`,"r":5}`)
	stale("monitor delete", s.handleMonitorDelete, http.MethodDelete, "/v1/venues/v/monitors/1", "", "mid", "1")
	stale("monitor stream", s.handleMonitorStream, http.MethodGet, "/v1/venues/v/monitors/1/stream", "", "mid", "1")

	// The serving generation is untouched: its stream is open, monitor 1
	// still holds exactly object 7, and only object 7 has a position.
	if vNew.Stream().Closed() {
		t.Fatal("a stale request closed the serving generation's stream")
	}
	var res struct {
		Epoch   uint64  `json:"epoch"`
		Objects []int32 `json:"objects"`
	}
	rec := serve(http.MethodGet, "/v1/venues/v/monitors/1/result", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("new generation's monitor: %d: %s", rec.Code, rec.Body.String())
	}
	if err := json.NewDecoder(rec.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Epoch != vNew.Epoch() || len(res.Objects) != 1 || res.Objects[0] != 7 {
		t.Fatalf("new generation's monitor at epoch %d holds %v, want [7] at epoch %d", res.Epoch, res.Objects, vNew.Epoch())
	}
	if n := vNew.Stream().NumObjects(); n != 1 {
		t.Fatalf("new generation tracks %d objects, want 1", n)
	}
	if n := vNew.Stream().NumQueries(); n != 1 {
		t.Fatalf("new generation has %d monitors, want 1", n)
	}
}
