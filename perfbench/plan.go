package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"indoorsq/internal/indoor"
	"indoorsq/internal/obs"
	"indoorsq/internal/spacegen"
)

// Operation kinds of a request.
const (
	kindRange = iota
	kindKNN
	kindSPD
	kindUpdate
	kindRead
	numKinds
)

var kindNames = [numKinds]string{obs.OpRange, obs.OpKNN, obs.OpSPD, "update", "read"}

// request is one pre-generated HTTP request with the parameters the answer
// gate needs to check its response.
type request struct {
	kind  int
	venue string
	path  string // URL path and query
	body  []byte // POST body (nil: GET)
	ops   int    // operations it carries: 1, or the batch length

	p, q    indoor.Point // query point; SPD target
	r       float64
	k       int
	updates []updateReport // update: the batch
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func pointQuery(p indoor.Point, suffix string) string {
	return fmt.Sprintf("x%s=%s&y%s=%s&floor%s=%d", suffix, ftoa(p.X), suffix, ftoa(p.Y), suffix, p.Floor)
}

// planQueries generates each client's query sequence from the workload
// seed: venue by Zipf rank (or uniform), op by the mix, points from the
// venue's hotspots or uniform over its rooms.
func planQueries(def *workloadDef, s *system, seed int64, clients, perClient int) [][]request {
	rng := rand.New(rand.NewSource(seed))
	type venuePts struct {
		id  string
		sp  *indoor.Space
		hot []indoor.Point
	}
	vs := make([]venuePts, len(def.venues))
	for i, v := range def.venues {
		vs[i] = venuePts{id: v.id, sp: s.space(v.id)}
		for j := 0; j < def.hotspots; j++ {
			vs[i].hot = append(vs[i].hot, spacegen.Point(vs[i].sp, rng))
		}
	}
	var zipf *rand.Zipf
	if def.zipfS > 1 && len(vs) > 1 {
		zipf = rand.NewZipf(rng, def.zipfS, 1, uint64(len(vs)-1))
	}
	point := func(v *venuePts) indoor.Point {
		if len(v.hot) > 0 && rng.Float64() < def.hotFrac {
			return v.hot[rng.Intn(len(v.hot))]
		}
		return spacegen.Point(v.sp, rng)
	}
	out := make([][]request, clients)
	for c := range out {
		seq := make([]request, perClient)
		for i := range seq {
			v := &vs[0]
			switch {
			case zipf != nil:
				v = &vs[zipf.Uint64()]
			case len(vs) > 1:
				v = &vs[rng.Intn(len(vs))]
			}
			op := def.mix[len(def.mix)-1].op
			x := rng.Float64()
			for _, m := range def.mix {
				if x < m.share {
					op = m.op
					break
				}
				x -= m.share
			}
			rq := request{venue: v.id, p: point(v), ops: 1}
			prefix := "/v1/venues/" + v.id + "/"
			switch op {
			case obs.OpRange:
				rq.kind, rq.r = kindRange, def.rangeR
				rq.path = prefix + "range?" + pointQuery(rq.p, "") + "&r=" + ftoa(rq.r)
			case obs.OpKNN:
				rq.kind, rq.k = kindKNN, def.knnK
				rq.path = prefix + "knn?" + pointQuery(rq.p, "") + "&k=" + strconv.Itoa(rq.k)
			default:
				rq.kind, rq.q = kindSPD, point(v)
				rq.path = prefix + "spd?" + pointQuery(rq.p, "") + "&" + pointQuery(rq.q, "2")
			}
			seq[i] = rq
		}
		out[c] = seq
	}
	return out
}

// planIngest generates each client's ingest sequence: a motion stream over
// every object (spacegen.MotionStream, continuing from the seeding pass),
// split by object owner — client c owns the objects with id % clients ==
// c — into batches, with every readEvery-th request a monitor result read.
func planIngest(def *workloadDef, s *system, seed int64, clients, steps int) ([][]request, error) {
	v := def.venues[0]
	sp := s.space(v.id)
	motions := spacegen.MotionStream(sp, moverSeed(seed), def.movers, steps, 1, 1e-4, def.hopFrac)
	rng := rand.New(rand.NewSource(seed*31 + 5))
	prefix := "/v1/venues/" + v.id + "/"
	owned := make([][]updateReport, clients)
	for _, m := range motions {
		c := int(m.ID) % clients
		owned[c] = append(owned[c], updateReport{ID: m.ID, X: m.Loc.X, Y: m.Loc.Y, Floor: m.Loc.Floor, T: m.T})
	}
	out := make([][]request, clients)
	for c := range out {
		var seq []request
		for lo := 0; lo+def.batch <= len(owned[c]); {
			if (len(seq)+1)%def.readEvery == 0 {
				mid := s.monitors[rng.Intn(len(s.monitors))].id
				seq = append(seq, request{
					kind: kindRead, venue: v.id, ops: 1,
					path: prefix + "monitors/" + strconv.Itoa(int(mid)) + "/result",
				})
				continue
			}
			batch := owned[c][lo : lo+def.batch]
			body, err := json.Marshal(map[string]any{"updates": batch})
			if err != nil {
				return nil, err
			}
			seq = append(seq, request{
				kind: kindUpdate, venue: v.id, ops: len(batch), updates: batch,
				path: prefix + "updates", body: body,
			})
			lo += def.batch
		}
		out[c] = seq
	}
	return out, nil
}
