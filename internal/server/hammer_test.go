package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"indoorsq/internal/indoor"
	"indoorsq/internal/query"
	"indoorsq/internal/server"
	"indoorsq/internal/snapshot/bundle"
	"indoorsq/internal/spacegen"
	"indoorsq/internal/tenant"
	"indoorsq/internal/workload"
)

// hammerVenue is one venue of the generation hammer: two artifacts over the
// same rooms (so the carried-over POI set stays valid) whose door counts
// differ, and every engine's expected answers on each.
type hammerVenue struct {
	id     string
	paths  [2]string
	doors  [2]int
	pts    []indoor.Point
	expect [2]map[string][]string // artifact -> engine -> answer per query slot
}

// artifactOf maps a venue epoch to the artifact serving it: boot (epoch 1)
// loads artifact 0 and the swapper alternates 1, 0, 1, ...
func artifactOf(epoch uint64) int { return int(1 - epoch%2) }

var hammerEngines = []string{"IDModel", "CIndex"}

const (
	hammerRange   = 7.0
	hammerK       = 3
	hammerObjects = 24
)

func rangeAnswer(ids []int32) string             { return fmt.Sprint("range ", ids) }
func knnAnswer(nn []query.Neighbor) string       { return fmt.Sprint("knn ", nn) }
func spdAnswer(dist float64, doors []int) string { return fmt.Sprint("spd ", dist, doors) }

func newHammerVenue(t *testing.T, dir, id string, seed int64, rows int) (*hammerVenue, tenant.VenueSpec) {
	t.Helper()
	hv := &hammerVenue{id: id}
	var spaces [2]*indoor.Space
	for a, extra := range []int{0, 3} {
		sp, err := spacegen.Generate(seed, spacegen.Params{Rows: rows, Cols: 3, ExtraDoors: extra}.Normalize())
		if err != nil {
			t.Fatal(err)
		}
		b, err := bundle.Build(id, sp, bundle.Options{Engines: hammerEngines, Gamma: 4})
		if err != nil {
			t.Fatal(err)
		}
		hv.paths[a] = filepath.Join(dir, fmt.Sprintf("%s-%d.isq", id, a))
		if err := b.WriteFile(hv.paths[a], false); err != nil {
			t.Fatal(err)
		}
		spaces[a], hv.doors[a] = sp, sp.NumDoors()
	}
	// Extra doors only add walls' worth of doors, never rooms: at least one
	// lands, so the door count identifies the artifact.
	if hv.doors[0] == hv.doors[1] || len(spaces[0].Partitions()) != len(spaces[1].Partitions()) {
		t.Fatalf("%s: artifacts share a door count (%d) or differ in rooms", id, hv.doors[0])
	}
	objs := spacegen.Objects(spaces[0], seed*7, hammerObjects)
	hv.pts = workload.New(spaces[0], seed).Points(6)
	for a := range hv.paths {
		b, err := bundle.LoadFile(hv.paths[a])
		if err != nil {
			t.Fatal(err)
		}
		hv.expect[a] = map[string][]string{}
		for name, e := range b.Engines {
			e.SetObjects(objs)
			for i, p := range hv.pts {
				ids, _ := e.Range(p, hammerRange, nil)
				nn, _ := e.KNN(p, hammerK, nil)
				path, _ := e.SPD(p, hv.pts[(i+1)%len(hv.pts)], nil)
				doors := make([]int, len(path.Doors))
				for j, d := range path.Doors {
					doors[j] = int(d)
				}
				hv.expect[a][name] = append(hv.expect[a][name],
					rangeAnswer(ids), knnAnswer(nn), spdAnswer(path.Dist, doors))
			}
		}
	}
	return hv, tenant.VenueSpec{ID: id, Snapshot: hv.paths[0], ObjectList: objs}
}

// monitorKey names one registration: monitor ids are unique across the
// test, so (venue, id) identifies exactly one generation's monitor.
type monitorKey struct {
	venue string
	id    int32
}

type hammerEvent struct {
	Query int32 `json:"query"`
}

// sighting is a 2xx response that involved monitor ids at an epoch.
type sighting struct {
	venue string
	epoch uint64
	ids   []int32
	what  string
}

// TestGenerationHammer interleaves routed queries, update batches, monitor
// create/delete/result reads and subscription drains on two venues from
// four goroutines while a fifth swaps both venues 40 times between two
// artifacts with different door counts. Every 2xx answer must come from the
// venue asked and the generation its epoch names (door count for info, the
// exact answer of the serving engine for range/kNN/SPD), every monitor
// event and monitor read must belong to a monitor registered on that same
// generation, epochs never go backwards per client, no response is a 5xx,
// and each venue ends at epoch 41 with its POI set carried through.
func TestGenerationHammer(t *testing.T) {
	dir := t.TempDir()
	north, northSpec := newHammerVenue(t, dir, "north", 41, 2)
	south, southSpec := newHammerVenue(t, dir, "south", 42, 3)
	venues := []*hammerVenue{north, south}
	tier, err := tenant.New([]tenant.VenueSpec{northSpec, southSpec}, tenant.Options{
		Seed:   3,
		Router: tenant.RouterConfig{ExplorePerEngine: 1, ReevalEvery: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewTenantServer(tier)
	h := srv.Handler()

	var mu sync.Mutex
	var failures []string
	created := map[monitorKey]uint64{}
	var sightings []sighting
	report := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	var nextMonitor atomic.Int32

	const swaps = 40
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the swapper
		defer wg.Done()
		defer close(done)
		for i := 0; i < swaps; i++ {
			for _, hv := range venues {
				body := fmt.Sprintf(`{"path":%q}`, hv.paths[1-i%2])
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/venues/"+hv.id+"/swap", strings.NewReader(body)))
				var resp struct {
					Epoch  uint64 `json:"epoch"`
					Origin string `json:"origin"`
				}
				if rec.Code != http.StatusOK || json.NewDecoder(rec.Body).Decode(&resp) != nil ||
					resp.Epoch != uint64(i)+2 || resp.Origin != "snapshot" {
					report("swap %d of %s: %d: %s", i, hv.id, rec.Code, rec.Body.String())
					return
				}
			}
		}
	}()

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lastEpoch := map[string]uint64{}
			mine := map[string][]int32{} // live monitor ids this worker registered, per venue
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				hv := venues[(g+i)%len(venues)]
				slot := i % len(hv.pts)
				p, q := hv.pts[slot], hv.pts[(slot+1)%len(hv.pts)]
				at := fmt.Sprintf("x=%g&y=%g&floor=%d", p.X, p.Y, p.Floor)
				atJSON := fmt.Sprintf(`"x":%g,"y":%g,"floor":%d`, p.X, p.Y, p.Floor)
				base := "/v1/venues/" + hv.id
				method, url, body := http.MethodGet, "", ""
				var mid int32
				op := i % 8
				switch op {
				case 0:
					url = fmt.Sprintf("%s/range?%s&r=%g", base, at, hammerRange)
				case 1:
					url = fmt.Sprintf("%s/knn?%s&k=%d", base, at, hammerK)
				case 2:
					url = fmt.Sprintf("%s/spd?%s&x2=%g&y2=%g&floor2=%d", base, at, q.X, q.Y, q.Floor)
				case 3:
					url = base + "/info"
				case 4:
					method, url = http.MethodPost, base+"/updates"
					body = fmt.Sprintf(`{"updates":[{"id":%d,%s,"t":%d},{"id":%d,%s,"t":%d}]}`,
						100*g+i%7, atJSON, i, 100*g+50, fmt.Sprintf(`"x":%g,"y":%g,"floor":%d`, q.X, q.Y, q.Floor), i)
				case 5:
					mid = nextMonitor.Add(1)
					method, url = http.MethodPost, base+"/monitors"
					kind := `"kind":"range","r":9`
					if mid%2 == 0 {
						kind = `"kind":"knn","k":2`
					}
					body = fmt.Sprintf(`{"id":%d,%s,%s,"t":%d}`, mid, kind, atJSON, i)
				case 6, 7:
					ids := mine[hv.id]
					if len(ids) == 0 {
						continue
					}
					mid = ids[i%len(ids)]
					switch {
					case op == 7:
						url = fmt.Sprintf("%s/monitors/%d/stream", base, mid)
					case i%3 == 0:
						method, url = http.MethodDelete, fmt.Sprintf("%s/monitors/%d", base, mid)
						mine[hv.id] = removeID(ids, mid)
					default:
						url = fmt.Sprintf("%s/monitors/%d/result", base, mid)
					}
				}
				req := httptest.NewRequest(method, url, strings.NewReader(body))
				cancel := context.CancelFunc(func() {})
				if op == 7 { // drain the subscription briefly, then hang up
					var ctx context.Context
					ctx, cancel = context.WithTimeout(context.Background(), 2*time.Millisecond)
					req = req.WithContext(ctx)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				cancel()
				if rec.Code >= 500 {
					report("worker %d: %s %s -> %d: %s", g, method, url, rec.Code, rec.Body.String())
					return
				}
				if rec.Code >= 300 {
					// 422: unanswerable query; 404/409: the monitor's
					// generation was swapped out from under the request.
					ok := rec.Code == http.StatusUnprocessableEntity && op <= 2 ||
						(rec.Code == http.StatusNotFound || rec.Code == http.StatusConflict) && op >= 4
					if !ok {
						report("worker %d: %s %s -> %d: %s", g, method, url, rec.Code, rec.Body.String())
						return
					}
					continue
				}
				if op == 7 {
					sc := bufio.NewScanner(bytes.NewReader(rec.Body.Bytes()))
					for sc.Scan() {
						var ev hammerEvent
						if err := json.Unmarshal(sc.Bytes(), &ev); err != nil || ev.Query != mid {
							report("worker %d: stream of monitor %d delivered %q", g, mid, sc.Text())
							return
						}
					}
					continue
				}
				var resp struct {
					Venue     string           `json:"venue"`
					Epoch     uint64           `json:"epoch"`
					Engine    string           `json:"engine"`
					Neighbors []query.Neighbor `json:"neighbors"`
					Dist      float64          `json:"dist"`
					// info reports counts where range and spd report lists.
					Objects json.RawMessage `json:"objects"`
					Doors   json.RawMessage `json:"doors"`
					Events  []hammerEvent   `json:"events"`
				}
				err := json.Unmarshal(rec.Body.Bytes(), &resp)
				if err != nil {
					report("worker %d: %s decode: %v", g, url, err)
					return
				}
				if resp.Epoch < lastEpoch[hv.id] {
					report("worker %d: %s epoch went backwards %d -> %d", g, hv.id, lastEpoch[hv.id], resp.Epoch)
					return
				}
				lastEpoch[hv.id] = resp.Epoch
				art := artifactOf(resp.Epoch)
				switch op {
				case 0, 1, 2:
					var got string
					var objs []int32
					var path []int
					switch op {
					case 0:
						err = json.Unmarshal(resp.Objects, &objs)
						got = rangeAnswer(objs)
					case 1:
						got = knnAnswer(resp.Neighbors)
					case 2:
						err = json.Unmarshal(resp.Doors, &path)
						got = spdAnswer(resp.Dist, path)
					}
					if err != nil {
						report("worker %d: %s decode: %v", g, url, err)
						return
					}
					want := "an engine of the artifact"
					if answers, ok := hv.expect[art][resp.Engine]; ok {
						want = answers[3*slot+op]
					}
					if got != want {
						report("worker %d: %s at epoch %d (artifact %d) by %q answered %s, want %s",
							g, url, resp.Epoch, art, resp.Engine, got, want)
						return
					}
				case 3:
					var n int
					if err := json.Unmarshal(resp.Doors, &n); err != nil || n != hv.doors[art] || resp.Venue != hv.id {
						report("worker %d: %s info at epoch %d reports venue %s with %s doors, artifact %d has %d",
							g, hv.id, resp.Epoch, resp.Venue, resp.Doors, art, hv.doors[art])
						return
					}
				default:
					s := sighting{venue: hv.id, epoch: resp.Epoch, what: method + " " + url}
					for _, e := range resp.Events {
						s.ids = append(s.ids, e.Query)
					}
					if op == 6 {
						s.ids = append(s.ids, mid)
					}
					mu.Lock()
					if op == 5 {
						created[monitorKey{hv.id, mid}] = resp.Epoch
						mine[hv.id] = append(mine[hv.id], mid)
					}
					sightings = append(sightings, s)
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()

	if len(failures) > 0 {
		t.Fatalf("%d failures, first: %s", len(failures), failures[0])
	}
	for _, s := range sightings {
		for _, id := range s.ids {
			if e, ok := created[monitorKey{s.venue, id}]; !ok || e != s.epoch {
				t.Fatalf("%s at epoch %d involved monitor %d of %s registered at epoch %d (known %v)",
					s.what, s.epoch, id, s.venue, e, ok)
			}
		}
	}
	for _, hv := range venues {
		v, _ := tier.Venue(hv.id)
		if v.Epoch() != swaps+1 || len(v.Objects) != hammerObjects {
			t.Fatalf("venue %s final epoch %d with %d objects, want %d with %d",
				hv.id, v.Epoch(), len(v.Objects), swaps+1, hammerObjects)
		}
	}
	if len(created) == 0 || len(sightings) == 0 {
		t.Fatalf("hammer registered %d monitors and saw %d monitor responses; nothing was exercised",
			len(created), len(sightings))
	}
	if n := srv.EncodeErrors(); n != 0 {
		t.Fatalf("%d encode errors", n)
	}
}

func removeID(ids []int32, id int32) []int32 {
	out := ids[:0:0]
	for _, x := range ids {
		if x != id {
			out = append(out, x)
		}
	}
	return out
}
