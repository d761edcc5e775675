package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"indoorsq/internal/indoor"
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
	sp, h := newBenchHandler(b)

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

// newBenchHandler serves the benchmarks' small generated venue "bench":
// two floors of 3x4 rooms, 200 objects, IDModel.
func newBenchHandler(b *testing.B) (*indoor.Space, http.Handler) {
	sp, err := spacegen.Generate(3, spacegen.Params{Floors: 2, Rows: 3, Cols: 4, ExtraDoors: 4}.Normalize())
	if err != nil {
		b.Fatal(err)
	}
	bu, err := bundle.Build("bench", sp, bundle.Options{Engines: []string{"IDModel"}, Gamma: 4})
	if err != nil {
		b.Fatal(err)
	}
	tier, _ := newBundleTier(b, bu, "IDModel", spacegen.Objects(sp, 5, 200))
	return sp, server.NewTenantServer(tier).Handler()
}

// newIngestBench registers 100 range monitors (r = 8) on the bench venue
// and builds 64 update batches of 64 reports each over 500 movers, shaped
// like the ingest benchmark's bodies (no part); every mover is placed
// before it returns.
func newIngestBench(b *testing.B) (http.Handler, [][]byte) {
	sp, h := newBenchHandler(b)
	serve := func(method, url string, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, url, bytes.NewReader(body)))
		if rec.Code/100 != 2 {
			b.Fatalf("%s %s: status %d: %s", method, url, rec.Code, rec.Body)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for id := range 100 {
		p := spacegen.Point(sp, rng)
		serve(http.MethodPost, "/v1/venues/bench/monitors",
			fmt.Appendf(nil, `{"id":%d,"x":%g,"y":%g,"floor":%d,"r":8}`, id, p.X, p.Y, p.Floor))
	}
	type report struct {
		ID    int32   `json:"id"`
		X     float64 `json:"x"`
		Y     float64 `json:"y"`
		Floor int16   `json:"floor"`
		T     float64 `json:"t"`
	}
	var batch []report
	for _, o := range spacegen.Objects(sp, 21, 500) {
		batch = append(batch, report{ID: o.ID, X: o.Loc.X, Y: o.Loc.Y, Floor: o.Loc.Floor})
	}
	seed, err := json.Marshal(map[string]any{"updates": batch})
	if err != nil {
		b.Fatal(err)
	}
	serve(http.MethodPost, "/v1/venues/bench/updates", seed)
	motions := spacegen.MotionStream(sp, 21, 500, 64*64, 1, 1e-4, 0.2)
	bodies := make([][]byte, 0, 64)
	for lo := 0; lo < len(motions); lo += 64 {
		batch = batch[:0]
		for _, m := range motions[lo : lo+64] {
			batch = append(batch, report{ID: m.ID, X: m.Loc.X, Y: m.Loc.Y, Floor: m.Loc.Floor, T: m.T})
		}
		body, err := json.Marshal(map[string]any{"updates": batch})
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	return h, bodies
}

// BenchmarkUpdatesHandler posts 64-report batches to POST .../updates
// through Handler() with httptest on the bench venue with 100 standing
// range monitors: body read and decode, host lookup, stream apply and the
// events encoding. Run with -benchmem to see the ingest path's
// allocations.
func BenchmarkUpdatesHandler(b *testing.B) {
	h, bodies := newIngestBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/venues/bench/updates", bytes.NewReader(bodies[i%len(bodies)])))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

// BenchmarkMonitorResult reads the 100 range monitors' results, cycling,
// through Handler() with httptest after the ingest batches were applied
// once.
func BenchmarkMonitorResult(b *testing.B) {
	h, bodies := newIngestBench(b)
	for _, body := range bodies {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/venues/bench/updates", bytes.NewReader(body)))
	}
	reqs := make([]*http.Request, 100)
	for id := range reqs {
		reqs[id] = httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/venues/bench/monitors/%d/result", id), nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, reqs[i%len(reqs)])
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}
