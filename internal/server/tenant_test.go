package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"indoorsq/internal/server"
	"indoorsq/internal/spacegen"
	"indoorsq/internal/tenant"
	"indoorsq/internal/workload"
)

var tenantTestEngines = []string{"IDModel", "IDIndex", "CIndex"}

func newTenantTier(t *testing.T) *tenant.Tier {
	t.Helper()
	mk := func(id string, seed int64) tenant.VenueSpec {
		return tenant.VenueSpec{
			ID: id, GenSeed: seed,
			GenParams: spacegen.Params{Floors: 1, Rows: 2, Cols: 3, ExtraDoors: 2},
			Engines:   tenantTestEngines,
			Objects:   16,
		}
	}
	tier, err := tenant.New([]tenant.VenueSpec{mk("north", 21), mk("south", 22)}, tenant.Options{
		Shards: 2, Seed: 7,
		Router: tenant.RouterConfig{ExplorePerEngine: 1, ReevalEvery: 8, SampleEvery: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tier
}

func tenantGetJSON(t *testing.T, h http.Handler, url string, wantCode int, v any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	if rec.Code != wantCode {
		t.Fatalf("GET %s -> %d (want %d): %s", url, rec.Code, wantCode, rec.Body.String())
	}
	if v != nil {
		if err := json.NewDecoder(rec.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
}

// TestTenantEndpoints walks the multi-venue surface end to end: listing,
// per-venue info, routed queries reporting the engine that served them, the
// per-query override, the routing introspection table, the pin knob, and
// per-venue metrics.
func TestTenantEndpoints(t *testing.T) {
	tier := newTenantTier(t)
	srv := server.NewTenantServer(tier)
	h := srv.Handler()

	var listing struct {
		Shards int `json:"shards"`
		Venues []struct {
			ID      string   `json:"id"`
			Shard   int      `json:"shard"`
			Epoch   uint64   `json:"epoch"`
			Engines []string `json:"engines"`
			Objects int      `json:"objects"`
		} `json:"venues"`
	}
	tenantGetJSON(t, h, "/v1/venues", http.StatusOK, &listing)
	if listing.Shards != 2 || len(listing.Venues) != 2 {
		t.Fatalf("listing: %+v", listing)
	}
	for _, v := range listing.Venues {
		if v.Epoch != 1 || v.Objects != 16 || len(v.Engines) != 3 {
			t.Fatalf("venue listing entry: %+v", v)
		}
	}

	tenantGetJSON(t, h, "/v1/venues/nowhere/info", http.StatusNotFound, nil)

	v, _ := tier.Venue("north")
	pts := workload.New(v.Space, 5).Points(2)
	p, q := pts[0], pts[1]

	var rr struct {
		Objects []int32 `json:"objects"`
		Engine  string  `json:"engine"`
		Epoch   uint64  `json:"epoch"`
	}
	rangeURL := fmt.Sprintf("/v1/venues/north/range?x=%g&y=%g&floor=%d&r=8", p.X, p.Y, p.Floor)
	tenantGetJSON(t, h, rangeURL, http.StatusOK, &rr)
	if rr.Engine == "" || rr.Epoch != 1 {
		t.Fatalf("range response lacks routing info: %+v", rr)
	}
	// The per-query override pins this one request; an unknown override 404s.
	tenantGetJSON(t, h, rangeURL+"&engine=CIndex", http.StatusOK, &rr)
	if rr.Engine != "CIndex" {
		t.Fatalf("override ignored: served by %q", rr.Engine)
	}
	tenantGetJSON(t, h, rangeURL+"&engine=VIPTree", http.StatusNotFound, nil)

	var kr struct {
		Engine string `json:"engine"`
	}
	tenantGetJSON(t, h, fmt.Sprintf("/v1/venues/north/knn?x=%g&y=%g&floor=%d&k=3", p.X, p.Y, p.Floor),
		http.StatusOK, &kr)
	if kr.Engine == "" {
		t.Fatalf("knn response lacks engine: %+v", kr)
	}
	var sr struct {
		Dist   float64 `json:"dist"`
		Engine string  `json:"engine"`
	}
	tenantGetJSON(t, h, fmt.Sprintf("/v1/venues/south/spd?x=%g&y=%g&floor=%d&x2=%g&y2=%g&floor2=%d",
		p.X, p.Y, p.Floor, q.X, q.Y, q.Floor), http.StatusOK, &sr)
	if sr.Engine == "" {
		t.Fatalf("spd response lacks engine: %+v", sr)
	}

	// Routing introspection: a decision per query class, evidence per engine.
	var route struct {
		Venue     string `json:"venue"`
		Decisions []struct {
			Op       string `json:"op"`
			Mode     string `json:"mode"`
			Evidence []struct {
				Engine  string `json:"engine"`
				Queries int64  `json:"queries"`
			} `json:"evidence"`
		} `json:"decisions"`
	}
	tenantGetJSON(t, h, "/v1/venues/north/route", http.StatusOK, &route)
	if route.Venue != "north" || len(route.Decisions) != 3 {
		t.Fatalf("route table: %+v", route)
	}
	for _, d := range route.Decisions {
		if len(d.Evidence) != 3 {
			t.Fatalf("decision %s evidence: %+v", d.Op, d.Evidence)
		}
	}

	// The pin knob: pin every class, observe pinned serving, then unpin.
	post := func(url, body string, wantCode int) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, strings.NewReader(body)))
		if rec.Code != wantCode {
			t.Fatalf("POST %s -> %d (want %d): %s", url, rec.Code, wantCode, rec.Body.String())
		}
		return rec
	}
	post("/v1/venues/north/route", `{"op":"","engine":"IDModel"}`, http.StatusOK)
	tenantGetJSON(t, h, rangeURL, http.StatusOK, &rr)
	if rr.Engine != "IDModel" {
		t.Fatalf("pinned venue served by %q", rr.Engine)
	}
	post("/v1/venues/north/route", `{"op":"range","engine":"NoSuch"}`, http.StatusUnprocessableEntity)
	post("/v1/venues/north/route", `{"op":"","engine":""}`, http.StatusOK) // unpin all

	// Per-venue metrics carry the engine × op series the router reads.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/venues/north/metrics", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `op="range"`) {
		t.Fatalf("metrics: %d: %.200s", rec.Code, rec.Body.String())
	}
	if srv.EncodeErrors() != 0 {
		t.Fatalf("%d encode errors", srv.EncodeErrors())
	}
}
