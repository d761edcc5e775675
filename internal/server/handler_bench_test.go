package server_test

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"indoorsq/internal/server"
	"indoorsq/internal/snapshot/bundle"
	"indoorsq/internal/spacegen"
)

// BenchmarkQueryHandler drives one query endpoint through Handler() with
// httptest on a small generated venue (two floors, 3x4 rooms per floor, 200
// objects) pinned to IDModel: routing, parsing, the engine and the response
// encoding, without a socket. Run with -benchmem to see the request path's
// allocations; the requests cycle over 64 fixed query points.
func BenchmarkQueryHandler(b *testing.B) {
	sp, err := spacegen.Generate(3, spacegen.Params{Floors: 2, Rows: 3, Cols: 4, ExtraDoors: 4}.Normalize())
	if err != nil {
		b.Fatal(err)
	}
	bu, err := bundle.Build("bench", sp, bundle.Options{Engines: []string{"IDModel"}, Gamma: 4})
	if err != nil {
		b.Fatal(err)
	}
	tier, _ := newBundleTier(b, bu, "IDModel", spacegen.Objects(sp, 5, 200))
	h := server.NewTenantServer(tier).Handler()

	rng := rand.New(rand.NewSource(9))
	urls := map[string][]string{}
	for range 64 {
		p, q := spacegen.Point(sp, rng), spacegen.Point(sp, rng)
		at := fmt.Sprintf("x=%g&y=%g&floor=%d", p.X, p.Y, p.Floor)
		urls["range"] = append(urls["range"], "/v1/venues/bench/range?"+at+"&r=15")
		urls["knn"] = append(urls["knn"], "/v1/venues/bench/knn?"+at+"&k=10")
		urls["spd"] = append(urls["spd"], fmt.Sprintf("/v1/venues/bench/spd?%s&x2=%g&y2=%g&floor2=%d", at, q.X, q.Y, q.Floor))
	}
	for _, op := range []string{"range", "knn", "spd"} {
		reqs := make([]*http.Request, len(urls[op]))
		for i, u := range urls[op] {
			reqs[i] = httptest.NewRequest(http.MethodGet, u, nil)
		}
		b.Run(op, func(b *testing.B) {
			b.ReportAllocs()
			for i := range b.N {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, reqs[i%len(reqs)])
				if rec.Code != http.StatusOK {
					b.Fatalf("%s: status %d: %s", reqs[i%len(reqs)].URL, rec.Code, rec.Body)
				}
			}
		})
	}
}
