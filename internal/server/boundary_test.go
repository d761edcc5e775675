package server_test

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"indoorsq/internal/enginetest"
	"indoorsq/internal/indoor"
	"indoorsq/internal/server"
	"indoorsq/internal/snapshot/bundle"
	"indoorsq/internal/tenant"
)

// TestBoundaryRoutedEqualsPinned serves CPH on all five engines and checks,
// at points of its boundary corpus (shared walls, vertices, doors, and
// ±Eps/±2Eps off them), that every routed range, kNN and SPD answer over
// HTTP equals every pinned engine's (?engine=): the router decides which
// engine answers, so the engines must agree on the host of such points.
// Explore and committed routes are both exercised.
func TestBoundaryRoutedEqualsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds CPH on all five engines")
	}
	tier, err := tenant.New([]tenant.VenueSpec{{ID: "cph", Dataset: "CPH", Objects: 64}}, tenant.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	h := server.NewTenantServer(tier).Handler()
	v, _ := tier.Venue("cph")
	pts := enginetest.BoundaryPoints(v.Space)
	sample := []indoor.Point{indoor.At(1750, 475, 0)}
	for i := 0; i < 40; i++ {
		sample = append(sample, pts[i*len(pts)/40])
	}
	type answer struct {
		Objects   []int32 `json:"objects"`
		Neighbors []struct {
			Dist float64 `json:"Dist"`
		} `json:"neighbors"`
		Dist   float64 `json:"dist"`
		Engine string  `json:"engine"`
	}
	get := func(url string) (answer, int) {
		var a answer
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &a); err != nil {
				t.Fatalf("%s: %v", url, err)
			}
		}
		return a, rec.Code
	}
	same := func(a, b answer) bool {
		if fmt.Sprint(a.Objects) != fmt.Sprint(b.Objects) || len(a.Neighbors) != len(b.Neighbors) ||
			math.Abs(a.Dist-b.Dist) > 1e-6 {
			return false
		}
		for i := range a.Neighbors {
			if math.Abs(a.Neighbors[i].Dist-b.Neighbors[i].Dist) > 1e-6 {
				return false
			}
		}
		return true
	}
	for i, p := range sample {
		q := sample[(i*7+3)%len(sample)]
		for _, path := range []string{
			fmt.Sprintf("range?x=%v&y=%v&floor=%d&r=600", p.X, p.Y, p.Floor),
			fmt.Sprintf("knn?x=%v&y=%v&floor=%d&k=5", p.X, p.Y, p.Floor),
			fmt.Sprintf("spd?x=%v&y=%v&floor=%d&x2=%v&y2=%v&floor2=%d", p.X, p.Y, p.Floor, q.X, q.Y, q.Floor),
		} {
			url := "/v1/venues/cph/" + path
			routed, code := get(url)
			for _, eng := range bundle.EngineNames {
				pinned, pcode := get(url + "&engine=" + eng)
				if pcode != code || !same(routed, pinned) {
					t.Fatalf("%s: routed via %s (%d) %+v, pinned %s (%d) %+v", url, routed.Engine, code, routed, eng, pcode, pinned)
				}
			}
		}
	}
}
