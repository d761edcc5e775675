package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"sync"

	"indoorsq/internal/indoor"
	"indoorsq/internal/moving"
	"indoorsq/internal/oracle"
	"indoorsq/internal/query"
)

// distTol is the answer gate's distance tolerance.
const distTol = 1e-6

// gateQueries sends a fixed sample of each client's query sequence over
// HTTP and checks every answer against internal/oracle: range id sets
// equal, kNN (dist, id) lists equal, SPD distance within distTol. It
// returns the number of checked requests.
func gateQueries(s *system, seqs [][]request, perClient int) (int, error) {
	oracles := make(map[string]*oracle.Engine)
	for _, id := range s.tier.VenueIDs() {
		v, _ := s.tier.Venue(id)
		o := oracle.New(v.Space)
		o.SetObjects(v.Objects)
		oracles[id] = o
	}
	c := &http.Client{}
	defer c.CloseIdleConnections()
	checked := 0
	for _, seq := range seqs {
		for i := 0; i < perClient && i < len(seq); i++ {
			rq := &seq[i]
			if err := checkQuery(c, s.base, rq, oracles[rq.venue]); err != nil {
				return checked, fmt.Errorf("answer gate: %s %s: %w", kindNames[rq.kind], rq.path, err)
			}
			checked++
		}
	}
	return checked, nil
}

func checkQuery(c *http.Client, base string, rq *request, o *oracle.Engine) error {
	var got struct {
		Objects   []int32          `json:"objects"`
		Neighbors []query.Neighbor `json:"neighbors"`
		Dist      float64          `json:"dist"`
	}
	if err := getJSON(c, base+rq.path, &got); err != nil {
		return err
	}
	switch rq.kind {
	case kindRange:
		want, err := o.Range(rq.p, rq.r, nil)
		if err != nil {
			return err
		}
		g := slices.Clone(got.Objects)
		slices.Sort(g)
		w := slices.Clone(want)
		slices.Sort(w)
		if !slices.Equal(g, w) {
			return fmt.Errorf("range ids %v, oracle %v", g, w)
		}
	case kindKNN:
		want, err := o.KNN(rq.p, rq.k, nil)
		if err != nil {
			return err
		}
		if !sameNeighbors(got.Neighbors, want) {
			return fmt.Errorf("knn %v, oracle %v", got.Neighbors, want)
		}
	case kindSPD:
		want, err := o.SPD(rq.p, rq.q, nil)
		if err != nil {
			return err
		}
		if math.Abs(got.Dist-want.Dist) > distTol {
			return fmt.Errorf("spd dist %v, oracle %v", got.Dist, want.Dist)
		}
	}
	return nil
}

// sameNeighbors compares two kNN answers as (dist, id) sets: equal length,
// equal ids, and distances within distTol, both sides ordered by (dist, id).
func sameNeighbors(a, b []query.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	order := func(ns []query.Neighbor) []query.Neighbor {
		ns = slices.Clone(ns)
		sort.Slice(ns, func(i, j int) bool {
			if ns[i].Dist != ns[j].Dist {
				return ns[i].Dist < ns[j].Dist
			}
			return ns[i].ID < ns[j].ID
		})
		return ns
	}
	a, b = order(a), order(b)
	for i := range a {
		if a[i].ID != b[i].ID || math.Abs(a[i].Dist-b[i].Dist) > distTol {
			return false
		}
	}
	return true
}

// gateMonitors checks every monitor's /result against a serial
// moving.Monitor fed each object's last sent position. The serial monitor
// re-evaluates every query on every update, so the monitors are split
// across one reference monitor per CPU. It returns the number of checked
// monitors.
func gateMonitors(s *system, last map[int32]updateReport) (int, error) {
	id := s.def.venues[0].id
	sp := s.space(id)
	us, err := hostParts(sp, sortedReports(last), nil)
	if err != nil {
		return 0, fmt.Errorf("monitor gate: %w", err)
	}
	parts := runtime.GOMAXPROCS(0)
	refs := make([]*moving.Monitor, parts)
	errs := make([]error, parts)
	var wg sync.WaitGroup
	for w := range refs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ref := moving.NewMonitor(sp)
			for i := w; i < len(s.monitors); i += parts {
				m := s.monitors[i]
				if _, err := ref.Register(m.id, m.p, m.r, 0); err != nil {
					errs[w] = fmt.Errorf("register %d: %w", m.id, err)
					return
				}
			}
			for _, u := range us {
				if _, err := ref.Apply(u); err != nil {
					errs[w] = fmt.Errorf("apply: %w", err)
					return
				}
			}
			refs[w] = ref
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, fmt.Errorf("monitor gate: %w", err)
	}
	c := &http.Client{}
	defer c.CloseIdleConnections()
	for i, m := range s.monitors {
		var got struct {
			Objects []int32 `json:"objects"`
		}
		if err := getJSON(c, fmt.Sprintf("%s/v1/venues/%s/monitors/%d/result", s.base, id, m.id), &got); err != nil {
			return 0, fmt.Errorf("monitor gate: %w", err)
		}
		want := refs[i%parts].Result(m.id)
		g := slices.Clone(got.Objects)
		slices.Sort(g)
		w := slices.Clone(want)
		slices.Sort(w)
		if !slices.Equal(g, w) {
			return 0, fmt.Errorf("monitor gate: monitor %d holds %v, serial monitor %v", m.id, g, w)
		}
	}
	return len(s.monitors), nil
}

// lastPositions replays what the clients sent — the seeding pass, then
// the first sent[c] requests of each client's (wrapping) sequence — and
// returns every object's last reported position.
func lastPositions(seed []updateReport, seqs [][]request, sent []int) map[int32]updateReport {
	last := make(map[int32]updateReport, len(seed))
	for _, u := range seed {
		last[u.ID] = u
	}
	for c, seq := range seqs {
		for i := 0; i < sent[c]; i++ {
			for _, u := range seq[i%len(seq)].updates {
				last[u.ID] = u
			}
		}
	}
	return last
}

// sortedReports lists a position map's reports by object id.
func sortedReports(last map[int32]updateReport) []updateReport {
	out := make([]updateReport, 0, len(last))
	for _, u := range last {
		out = append(out, u)
	}
	slices.SortFunc(out, func(a, b updateReport) int { return int(a.ID - b.ID) })
	return out
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, body)
	}
	return json.Unmarshal(body, v)
}

// hostParts resolves the host partition of each report, as the server does
// for reports without a partition.
func hostParts(sp *indoor.Space, us []updateReport, out []moving.Update) ([]moving.Update, error) {
	out = out[:0]
	for _, u := range us {
		p := u.point()
		part, ok := sp.HostPartition(p)
		if !ok {
			return nil, fmt.Errorf("object %d at %v is not indoors", u.ID, p)
		}
		out = append(out, moving.Update{ID: u.ID, Loc: p, Part: part, T: u.T})
	}
	return out, nil
}
