// Package route plans multi-stop indoor walks on top of any query engine's
// shortest-path primitive: deliveries, patrols, or errand runs visiting a
// set of waypoints. Ordered walks concatenate SPDQ legs; Optimized solves
// the order exactly with Held–Karp dynamic programming over the pairwise
// indoor-distance matrix (asymmetric distances — unidirectional doors — are
// handled naturally).
package route

import (
	"context"
	"fmt"
	"math"

	"indoorsq/internal/exec"
	"indoorsq/internal/indoor"
	"indoorsq/internal/query"
)

// MaxStops bounds Optimized's waypoint count (Held–Karp is O(2^n · n^2)).
const MaxStops = 12

// Planner builds multi-stop routes over one engine. Optimized's O(n²)
// pairwise legs fan out over exec.Map — engines are read-only at query
// time — and the planner holds nothing else, so it is safe for concurrent
// use.
type Planner struct {
	eng query.Engine
}

// New returns a planner over the engine.
func New(eng query.Engine) *Planner { return &Planner{eng: eng} }

// concat appends leg to walk: doors are joined and the distance summed.
func concat(walk *query.Path, leg query.Path) {
	walk.Doors = append(walk.Doors, leg.Doors...)
	walk.Dist += leg.Dist
}

// assemble concatenates legs into one walk, preallocating the door slice
// from the summed leg lengths so concat never regrows it.
func assemble(p, q indoor.Point, legs ...query.Path) query.Path {
	total := 0
	for i := range legs {
		total += len(legs[i].Doors)
	}
	walk := query.Path{Source: p, Target: q, Doors: make([]indoor.DoorID, 0, total)}
	for i := range legs {
		concat(&walk, legs[i])
	}
	return walk
}

// Via returns the walk p -> stops[0] -> ... -> stops[n-1] -> q visiting the
// stops in the given order, bounded by ctx (and any query.Budget it
// carries): every SPDQ leg runs tracked, so cancellation interrupts the walk
// mid-leg and the budget spans all legs together.
func (pl *Planner) Via(ctx context.Context, p indoor.Point, stops []indoor.Point, q indoor.Point, st *query.Stats) (query.Path, error) {
	st = query.Track(ctx, st)
	if err := st.Interrupted(); err != nil {
		return query.Path{}, err
	}
	legs := make([]query.Path, 0, len(stops)+1)
	cur := p
	for i, s := range stops {
		leg, err := pl.eng.SPD(cur, s, st)
		if err != nil {
			return query.Path{}, fmt.Errorf("route: leg %d: %w", i, err)
		}
		legs = append(legs, leg)
		cur = s
	}
	leg, err := pl.eng.SPD(cur, q, st)
	if err != nil {
		return query.Path{}, fmt.Errorf("route: final leg: %w", err)
	}
	legs = append(legs, leg)
	return assemble(p, q, legs...), nil
}

// Optimized returns the shortest walk p -> (all stops, any order) -> q
// together with the visiting order (indexes into stops). It errors when
// more than MaxStops waypoints are given or any leg is unreachable. The
// O(n²) pairwise SPDQ legs fan out over exec.Map, every leg under
// ctx, so cancelling ctx interrupts the whole fan-out promptly. Each leg
// runs into its own Stats, folded into its worker's shard afterwards, so a
// query.Budget carried by ctx bounds each leg individually and the merged
// PeakWorkBytes is the largest leg's, however Map split the legs.
func (pl *Planner) Optimized(ctx context.Context, p indoor.Point, stops []indoor.Point, q indoor.Point, st *query.Stats) (query.Path, []int, error) {
	n := len(stops)
	if n == 0 {
		walk, err := query.SPD(ctx, pl.eng, p, q, st)
		return walk, nil, err
	}
	if n > MaxStops {
		return query.Path{}, nil, fmt.Errorf("route: at most %d stops, got %d", MaxStops, n)
	}

	// Pairwise legs: from p to each stop, between stops (both directions),
	// and from each stop to q. The O(n²) SPD legs are independent, so they
	// fan out over exec.Map; each leg writes its own slot and Map reports
	// the lowest-index error, keeping results and error
	// messages identical to the old serial triple loop.
	fromP := make([]query.Path, n)
	toQ := make([]query.Path, n)
	between := make([][]query.Path, n)
	for i := range between {
		between[i] = make([]query.Path, n)
	}
	type legJob struct {
		src, dst indoor.Point
		out      *query.Path
		what     string
	}
	jobs := make([]legJob, 0, n*(n+1))
	for i := range stops {
		jobs = append(jobs,
			legJob{p, stops[i], &fromP[i], fmt.Sprintf("p->stop %d", i)},
			legJob{stops[i], q, &toQ[i], fmt.Sprintf("stop %d->q", i)})
		for j := range stops {
			if i != j {
				jobs = append(jobs, legJob{stops[i], stops[j], &between[i][j], fmt.Sprintf("stop %d->%d", i, j)})
			}
		}
	}
	merged, err := exec.Map(len(jobs), func(i int, shard *query.Stats) error {
		var legSt query.Stats
		leg, err := query.SPD(ctx, pl.eng, jobs[i].src, jobs[i].dst, &legSt)
		shard.Add(legSt)
		if err != nil {
			return fmt.Errorf("route: %s: %w", jobs[i].what, err)
		}
		*jobs[i].out = leg
		return nil
	})
	st.Add(merged)
	if err != nil {
		return query.Path{}, nil, err
	}

	// Held–Karp: dp[mask][i] = best cost from p visiting exactly `mask`,
	// ending at stop i (i in mask).
	size := 1 << n
	dp := make([][]float64, size)
	par := make([][]int8, size)
	for m := range dp {
		dp[m] = make([]float64, n)
		par[m] = make([]int8, n)
		for i := range dp[m] {
			dp[m][i] = math.Inf(1)
			par[m][i] = -1
		}
	}
	for i := 0; i < n; i++ {
		dp[1<<i][i] = fromP[i].Dist
	}
	for mask := 1; mask < size; mask++ {
		for i := 0; i < n; i++ {
			if mask&(1<<i) == 0 || math.IsInf(dp[mask][i], 1) {
				continue
			}
			for j := 0; j < n; j++ {
				if mask&(1<<j) != 0 {
					continue
				}
				nm := mask | 1<<j
				if cand := dp[mask][i] + between[i][j].Dist; cand < dp[nm][j] {
					dp[nm][j] = cand
					par[nm][j] = int8(i)
				}
			}
		}
	}
	full := size - 1
	best, last := math.Inf(1), -1
	for i := 0; i < n; i++ {
		if cand := dp[full][i] + toQ[i].Dist; cand < best {
			best, last = cand, i
		}
	}
	if last < 0 {
		return query.Path{}, nil, query.ErrUnreachable
	}

	// Recover the visiting order.
	order := make([]int, 0, n)
	for mask, i := full, last; i >= 0; {
		order = append(order, i)
		pi := par[mask][i]
		mask &^= 1 << i
		i = int(pi)
	}
	for a, b := 0, len(order)-1; a < b; a, b = a+1, b-1 {
		order[a], order[b] = order[b], order[a]
	}

	// Assemble the walk from the stored legs.
	legs := make([]query.Path, 0, len(order)+1)
	legs = append(legs, fromP[order[0]])
	for k := 0; k+1 < len(order); k++ {
		legs = append(legs, between[order[k]][order[k+1]])
	}
	legs = append(legs, toQ[order[len(order)-1]])
	walk := assemble(p, q, legs...)
	if math.Abs(walk.Dist-best) > 1e-6 {
		return query.Path{}, nil, fmt.Errorf("route: internal: assembled %g != dp %g", walk.Dist, best)
	}
	return walk, order, nil
}
