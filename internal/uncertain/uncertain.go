// Package uncertain implements the uncertain-locations extension of the
// paper's Sec. 7: objects are uncertainty regions (disks clipped to their
// host partition, as indoor positioning errors cannot cross walls) rather
// than points. Table 6 singles out CINDEX for this setting because its
// geometric layer supports the region computations; this package builds on
// CINDEX accordingly.
//
// The continuous distribution is discretized into deterministic sample
// points (center plus concentric rings), following the probabilistic
// sample-based format of Xie et al. (ICDE 2013):
//
//   - ProbRange(p, r, τ) returns the objects whose probability of lying
//     within indoor distance r of p is at least τ;
//   - ExpectedKNN(p, k) ranks objects by expected indoor distance.
package uncertain

import (
	"context"
	"math"
	"sort"

	"indoorsq/internal/cindex"
	"indoorsq/internal/indoor"
	"indoorsq/internal/pq"
	"indoorsq/internal/query"
)

// Object is an uncertain static object: a disk of the given radius around
// Center, clipped to the host partition Part.
type Object struct {
	ID     int32
	Center indoor.Point
	Radius float64
	Part   indoor.PartitionID
}

// Result pairs an object with the probability (ProbRange) or the expected
// distance (ExpectedKNN) computed for it.
type Result struct {
	ID    int32
	Value float64
}

// Index evaluates probabilistic queries over uncertain objects.
type Index struct {
	sp      *indoor.Space
	cx      *cindex.Index
	objs    []Object
	samples [][]indoor.PointRef // per object: valid sample handles
}

// DefaultSamples is the number of candidate sample points per object.
const DefaultSamples = 13

// New builds the uncertain-object index over a CINDEX. samplesPerObject <= 0
// selects DefaultSamples. Samples falling outside the host partition are
// discarded (the disk is clipped); the center always remains.
func New(cx *cindex.Index, sp *indoor.Space, objs []Object, samplesPerObject int) *Index {
	if samplesPerObject <= 0 {
		samplesPerObject = DefaultSamples
	}
	x := &Index{sp: sp, cx: cx, objs: append([]Object(nil), objs...)}
	for _, o := range x.objs {
		part := sp.Partition(o.Part)
		pts := samplePoints(o, samplesPerObject)
		refs := make([]indoor.PointRef, 0, len(pts))
		for _, pt := range pts {
			if part.Poly.Contains(pt.XY()) {
				refs = append(refs, sp.Ref(o.Part, pt))
			}
		}
		if len(refs) == 0 {
			refs = append(refs, sp.Ref(o.Part, o.Center))
		}
		x.samples = append(x.samples, refs)
	}
	return x
}

// samplePoints lays out n deterministic candidates: the center plus rings
// at half and full radius.
func samplePoints(o Object, n int) []indoor.Point {
	pts := []indoor.Point{o.Center}
	if o.Radius <= 0 || n <= 1 {
		return pts
	}
	rest := n - 1
	inner := rest / 2
	outer := rest - inner
	addRing := func(r float64, k int) {
		for i := 0; i < k; i++ {
			a := 2 * math.Pi * float64(i) / float64(k)
			pts = append(pts, indoor.At(
				o.Center.X+r*math.Cos(a),
				o.Center.Y+r*math.Sin(a),
				o.Center.Floor))
		}
	}
	addRing(o.Radius/2, inner)
	addRing(o.Radius, outer)
	return pts
}

// Len returns the number of indexed objects.
func (x *Index) Len() int { return len(x.objs) }

// doorDistFrom runs a Dijkstra from p over the door graph (implemented via
// the CINDEX topological layer), bounded by limit and polling ctx every
// query.CheckInterval settled doors.
func (x *Index) doorDistFrom(ctx context.Context, p indoor.Point, vp indoor.PartitionID, limit float64) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := x.sp.NumDoors()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	var h pq.Heap[indoor.DoorID]
	for _, d := range x.sp.Partition(vp).Leave {
		if w := x.sp.WithinPointDoor(vp, p, d); w < dist[d] {
			dist[d] = w
			h.Push(d, w)
		}
	}
	settled := 0
	for h.Len() > 0 {
		d, dd := h.Pop()
		if dd > dist[d] || dd > limit {
			continue
		}
		if settled++; settled%query.CheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		for _, v := range x.sp.Door(d).Enterable {
			for _, nd := range x.sp.Partition(v).Leave {
				if w, _ := x.sp.WithinDoorsCached(v, d, nd); !math.IsInf(w, 1) {
					if cand := dd + w; cand < dist[nd] {
						dist[nd] = cand
						h.Push(nd, cand)
					}
				}
			}
		}
	}
	return dist, nil
}

// sampleDist returns the indoor distance from p (with door distances dist,
// host vp) to one sample handle.
func (x *Index) sampleDist(dist []float64, p indoor.Point, vp indoor.PartitionID, ref indoor.PointRef) float64 {
	best := math.Inf(1)
	if ref.V == vp {
		best = x.sp.RefDist(x.sp.Ref(vp, p), ref)
	}
	for _, d := range x.sp.Partition(ref.V).Enter {
		if math.IsInf(dist[d], 1) {
			continue
		}
		if cand := dist[d] + x.sp.RefToDoor(ref, d); cand < best {
			best = cand
		}
	}
	return best
}

// ProbRange returns the objects whose probability of being within indoor
// distance r of p is at least tau (0 < tau <= 1), with their probabilities,
// ordered by descending probability then id. The door Dijkstra and the
// per-object sample scoring both poll ctx, so a cancelled or expired query
// aborts mid-computation.
func (x *Index) ProbRange(ctx context.Context, p indoor.Point, r, tau float64) ([]Result, error) {
	vp, ok := x.cx.Host(p)
	if !ok {
		return nil, query.ErrNoHost
	}
	dist, err := x.doorDistFrom(ctx, p, vp, r)
	if err != nil {
		return nil, err
	}
	var out []Result
	for i, o := range x.objs {
		if i%query.CheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		// Geometric-layer prefilter: same-floor objects whose disk is
		// Euclidean-farther than r cannot qualify.
		if o.Center.Floor == p.Floor && vp != o.Part {
			if p.XY().Dist(o.Center.XY())-o.Radius > r {
				continue
			}
		}
		in := 0
		for _, ref := range x.samples[i] {
			if x.sampleDist(dist, p, vp, ref) <= r {
				in++
			}
		}
		if prob := float64(in) / float64(len(x.samples[i])); prob >= tau {
			out = append(out, Result{ID: o.ID, Value: prob})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Value != out[b].Value {
			return out[a].Value > out[b].Value
		}
		return out[a].ID < out[b].ID
	})
	return out, nil
}

// ExpectedKNN returns the k objects with the smallest expected indoor
// distance from p (mean over reachable samples); objects with no reachable
// sample are skipped. It is bounded by ctx: its unbounded door Dijkstra (the
// expected distance needs every reachable door) is exactly the kind of
// venue-wide sweep a deadline should be able to cut short.
func (x *Index) ExpectedKNN(ctx context.Context, p indoor.Point, k int) ([]Result, error) {
	if k <= 0 {
		return nil, nil
	}
	vp, ok := x.cx.Host(p)
	if !ok {
		return nil, query.ErrNoHost
	}
	dist, err := x.doorDistFrom(ctx, p, vp, math.Inf(1))
	if err != nil {
		return nil, err
	}
	var out []Result
	for i, o := range x.objs {
		if i%query.CheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		sum, cnt := 0.0, 0
		for _, ref := range x.samples[i] {
			if d := x.sampleDist(dist, p, vp, ref); !math.IsInf(d, 1) {
				sum += d
				cnt++
			}
		}
		if cnt > 0 {
			out = append(out, Result{ID: o.ID, Value: sum / float64(cnt)})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Value != out[b].Value {
			return out[a].Value < out[b].Value
		}
		return out[a].ID < out[b].ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out, nil
}
