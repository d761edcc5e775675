package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"indoorsq/internal/query"
	"indoorsq/internal/server"
	"indoorsq/internal/snapshot/bundle"
	"indoorsq/internal/spacegen"
	"indoorsq/internal/tenant"
	"indoorsq/internal/workload"
)

// newBundleTier boots a one-venue tier from a prebuilt bundle (venue id =
// bundle name) with every query class pinned to def.
func newBundleTier(t testing.TB, b *bundle.Bundle, def string, objs []query.Object) (*tenant.Tier, *tenant.Venue) {
	t.Helper()
	tier, err := tenant.New([]tenant.VenueSpec{{ID: b.Name, Bundle: b, ObjectList: objs}}, tenant.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := tier.Venue(b.Name)
	if err := v.Router().Pin("", def); err != nil {
		t.Fatal(err)
	}
	return tier, v
}

// TestHotSwapUnderLoad hammers the query endpoints from several goroutines
// while the main goroutine publishes 100 snapshot swaps through POST
// /v1/swap. Every query must complete against a consistent state: no 5xx,
// no encode errors, /v1/info always reports one of the two artifacts'
// venue names with a monotonically non-decreasing epoch, and the final
// epoch is initial + 100. Run under -race this also proves the single
// atomic-pointer publish needs no further synchronization on the query
// path.
func TestHotSwapUnderLoad(t *testing.T) {
	sp, err := spacegen.Generate(42, spacegen.Params{
		Floors: 2, Rows: 2, Cols: 3, ExtraDoors: 3, Objects: 16,
	}.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	b, err := bundle.Build("swap-A", sp, bundle.Options{
		Gamma: 4, Engines: []string{"IDModel", "CIndex"},
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.isq")
	pathB := filepath.Join(dir, "b.isq")
	if err := b.WriteFile(pathA, true); err != nil {
		t.Fatal(err)
	}
	// Same space, same engines, different venue name: the name is excluded
	// from the fingerprint, so both artifacts are loadable, and which one is
	// serving is observable through /v1/info.
	b.Name = "swap-B"
	if err := b.WriteFile(pathB, true); err != nil {
		t.Fatal(err)
	}

	objs := spacegen.Objects(sp, 7, 16)
	tier, _ := newBundleTier(t, b, "CIndex", objs)
	srv := server.NewTenantServer(tier)
	handler := srv.Handler()
	serving := func() *tenant.Venue { v, _ := tier.Venue(b.Name); return v }
	pts := workload.New(sp, 99).Points(4)

	const swaps = 100
	done := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failures []string
	report := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var lastEpoch uint64
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				p := pts[i%len(pts)]
				q := pts[(i+1)%len(pts)]
				var url string
				switch i % 4 {
				case 0:
					url = fmt.Sprintf("/v1/range?x=%g&y=%g&floor=%d&r=30", p.X, p.Y, p.Floor)
				case 1:
					url = fmt.Sprintf("/v1/knn?x=%g&y=%g&floor=%d&k=3", p.X, p.Y, p.Floor)
				case 2:
					url = fmt.Sprintf("/v1/route?x=%g&y=%g&floor=%d&x2=%g&y2=%g&floor2=%d",
						p.X, p.Y, p.Floor, q.X, q.Y, q.Floor)
				case 3:
					url = "/v1/info"
				}
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
				// 200 is the expected answer; 422 is a legitimately
				// unanswerable query (point outside any partition). Anything
				// else — especially a 5xx — is a swap-induced failure.
				if rec.Code != http.StatusOK && rec.Code != http.StatusUnprocessableEntity {
					report("worker %d: %s -> %d: %s", g, url, rec.Code, rec.Body.String())
					return
				}
				if i%4 == 3 && rec.Code == http.StatusOK {
					var info struct {
						Venue string `json:"venue"`
						Epoch uint64 `json:"epoch"`
						Doors int    `json:"doors"`
					}
					if err := json.NewDecoder(rec.Body).Decode(&info); err != nil {
						report("worker %d: info decode: %v", g, err)
						return
					}
					if info.Venue != "swap-A" && info.Venue != "swap-B" {
						report("worker %d: mixed-state venue %q", g, info.Venue)
						return
					}
					if info.Doors != sp.NumDoors() {
						report("worker %d: info doors %d, want %d", g, info.Doors, sp.NumDoors())
						return
					}
					if info.Epoch < lastEpoch {
						report("worker %d: epoch went backwards %d -> %d", g, lastEpoch, info.Epoch)
						return
					}
					lastEpoch = info.Epoch
				}
			}
		}(g)
	}

	initial := serving().Epoch()
	for i := 0; i < swaps; i++ {
		path := pathA
		if i%2 == 0 {
			path = pathB
		}
		body := strings.NewReader(fmt.Sprintf(`{"path":%q}`, path))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/swap", body))
		if rec.Code != http.StatusOK {
			t.Fatalf("swap %d: %d: %s", i, rec.Code, rec.Body.String())
		}
		var resp struct {
			Epoch  uint64 `json:"epoch"`
			Origin string `json:"origin"`
		}
		if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
			t.Fatalf("swap %d: decode: %v", i, err)
		}
		if resp.Epoch != initial+uint64(i)+1 {
			t.Fatalf("swap %d: epoch %d, want %d", i, resp.Epoch, initial+uint64(i)+1)
		}
		if resp.Origin != "snapshot" {
			t.Fatalf("swap %d: origin %q", i, resp.Origin)
		}
	}
	close(done)
	wg.Wait()

	if len(failures) > 0 {
		t.Fatalf("%d query failures during swaps, first: %s", len(failures), failures[0])
	}
	if got := serving().Epoch(); got != initial+swaps {
		t.Fatalf("final epoch %d, want %d", got, initial+swaps)
	}
	if n := srv.EncodeErrors(); n != 0 {
		t.Fatalf("%d encode errors", n)
	}
	// The swapped-in state carried the serving POI set over.
	if len(serving().Objects) != len(objs) {
		t.Fatalf("objects not carried across swap: %d, want %d", len(serving().Objects), len(objs))
	}
}

// TestSwapRejectsBadArtifacts pins the failure paths: a missing file, a
// missing configured path, a device, and an artifact lacking the serving
// default all leave the current state untouched.
func TestSwapRejectsBadArtifacts(t *testing.T) {
	sp, err := spacegen.Generate(43, spacegen.Params{Rows: 1, Cols: 2}.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	b, err := bundle.Build("v", sp, bundle.Options{Gamma: 4, Engines: []string{"CIndex"}})
	if err != nil {
		t.Fatal(err)
	}
	tier, v0 := newBundleTier(t, b, "CIndex", nil)
	handler := server.NewTenantServer(tier).Handler()
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/swap", strings.NewReader(body)))
		return rec
	}
	if rec := post(`{"path":"/nonexistent/x.isq"}`); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("missing file: %d", rec.Code)
	}
	if rec := post(``); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("no configured path: %d", rec.Code)
	}
	// A device is refused before any read: /dev/zero would stream forever.
	if _, err := os.Stat("/dev/zero"); err == nil {
		if rec := post(`{"path":"/dev/zero"}`); rec.Code != http.StatusUnprocessableEntity {
			t.Fatalf("device path: %d", rec.Code)
		}
	}
	// An artifact that lacks the serving default engine is refused.
	dir := t.TempDir()
	b2, err := bundle.Build("v2", sp, bundle.Options{Gamma: 4, Engines: []string{"IDModel"}})
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, "m.isq")
	if err := b2.WriteFile(p, false); err != nil {
		t.Fatal(err)
	}
	if rec := post(fmt.Sprintf(`{"path":%q}`, p)); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("missing default engine: %d", rec.Code)
	}
	cur, _ := tier.Venue("v")
	if cur.Epoch() != 1 {
		t.Fatalf("failed swaps advanced the epoch to %d", cur.Epoch())
	}
	if cur != v0 {
		t.Fatalf("failed swap replaced the state with %q", cur.Origin)
	}
}
