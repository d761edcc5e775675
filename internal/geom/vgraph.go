package geom

import (
	"math"
	"sync"
)

// VGraph answers geodesic (shortest-path-inside-a-polygon) distance queries
// for a concave indoor partition. It exploits the fact that geodesics bend
// only at polygon vertices: the visibility graph is built over the polygon
// vertices alone, while anchors (the partition's doors) and free points
// (objects, query locations) attach to it as endpoints.
//
// Construction precomputes, per anchor, the geodesic distance to every
// vertex. Anchor-to-anchor distances are NOT materialized here: they are
// computed on demand by AnchorDist, so that engines faithful to the paper's
// "no precomputation" designs (CINDEX, Sec. 3.3) pay exactly the on-the-fly
// cost, while the lazy door-pair cache in internal/indoor memoizes them for
// everything else. Query-time distances involving free points cost one
// visibility sweep over the vertices, served from a pooled scratch buffer
// so steady-state queries do not allocate.
type VGraph struct {
	poly  Polygon
	verts []Point
	// vadj[i][j]: straight-line distance when vertices i and j see each
	// other, +Inf otherwise.
	vadj [][]float64

	anchors []Point
	// anchorVert[i][v]: geodesic distance from anchor i to vertex v.
	anchorVert [][]float64

	// scratch pools per-sweep buffers (seed vectors, Dijkstra working sets)
	// sized for this graph's vertex count.
	scratch sync.Pool
}

// vgScratch is the reusable working set of one visibility sweep / Dijkstra
// run over the graph's vertices.
type vgScratch struct {
	seed []float64
	dist []float64
	done []bool
}

// NewVGraph builds the visibility structure of poly with the given anchors.
// Every anchor must lie inside poly or on its boundary.
func NewVGraph(poly Polygon, anchors []Point) *VGraph {
	g := &VGraph{
		poly:    poly,
		verts:   []Point(poly),
		anchors: append([]Point(nil), anchors...),
	}
	nv := len(g.verts)
	g.scratch.New = func() any {
		return &vgScratch{
			seed: make([]float64, nv),
			dist: make([]float64, nv),
			done: make([]bool, nv),
		}
	}
	g.vadj = make([][]float64, nv)
	for i := range g.vadj {
		g.vadj[i] = make([]float64, nv)
		for j := range g.vadj[i] {
			g.vadj[i][j] = math.Inf(1)
		}
		g.vadj[i][i] = 0
	}
	for i := 0; i < nv; i++ {
		for j := i + 1; j < nv; j++ {
			if poly.SegmentInside(g.verts[i], g.verts[j]) {
				d := g.verts[i].Dist(g.verts[j])
				g.vadj[i][j] = d
				g.vadj[j][i] = d
			}
		}
	}

	na := len(g.anchors)
	g.anchorVert = make([][]float64, na)
	sc := g.getScratch()
	for i := 0; i < na; i++ {
		g.attachInto(sc.seed, g.anchors[i])
		dist := make([]float64, nv)
		g.dijkstraInto(dist, sc.done, sc.seed, nil)
		g.anchorVert[i] = dist
	}
	g.putScratch(sc)
	return g
}

func (g *VGraph) getScratch() *vgScratch  { return g.scratch.Get().(*vgScratch) }
func (g *VGraph) putScratch(s *vgScratch) { g.scratch.Put(s) }

// NumAnchors returns the number of anchor points registered at construction.
func (g *VGraph) NumAnchors() int { return len(g.anchors) }

// AnchorDist returns the geodesic distance between anchors i and j,
// computed on the fly from the precomputed anchor-to-vertex distances plus
// one visibility sweep for anchor j. Callers that look the same pair up
// repeatedly should memoize through the door-pair distance cache layered on
// top (internal/indoor).
func (g *VGraph) AnchorDist(i, j int) float64 {
	if i == j {
		return 0
	}
	if g.poly.SegmentInside(g.anchors[i], g.anchors[j]) {
		return g.anchors[i].Dist(g.anchors[j])
	}
	sc := g.getScratch()
	g.attachInto(sc.seed, g.anchors[j])
	d := g.combine(g.anchorVert[i], sc.seed)
	g.putScratch(sc)
	return d
}

// attachInto fills dst with the straight-line distances from p to every
// vertex visible from p (+Inf for invisible vertices).
func (g *VGraph) attachInto(dst []float64, p Point) {
	for i, v := range g.verts {
		if g.poly.SegmentInside(p, v) {
			dst[i] = p.Dist(v)
		} else {
			dst[i] = math.Inf(1)
		}
	}
}

// dijkstraInto computes geodesic distances to all vertices from the seed
// vector (distance per vertex, +Inf when unseeded) with a dense O(V^2)
// scan, writing into dist and using done as the settled set. A non-nil stop
// is polled between vertex settlements; when it reports true the sweep
// aborts, leaving dist partially relaxed.
func (g *VGraph) dijkstraInto(dist []float64, done []bool, seed []float64, stop func() bool) {
	n := len(g.verts)
	copy(dist, seed)
	for i := range done {
		done[i] = false
	}
	for {
		if stop != nil && stop() {
			return
		}
		u, best := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !done[i] && dist[i] < best {
				u, best = i, dist[i]
			}
		}
		if u < 0 {
			return
		}
		done[u] = true
		row := g.vadj[u]
		for v := 0; v < n; v++ {
			if nd := best + row[v]; nd < dist[v] {
				dist[v] = nd
			}
		}
	}
}

// combine returns the best geodesic through any vertex: min over v of
// fromSrc[v] + toDst[v].
func (g *VGraph) combine(fromSrc, toDst []float64) float64 {
	best := math.Inf(1)
	for v := range fromSrc {
		if s := fromSrc[v] + toDst[v]; s < best {
			best = s
		}
	}
	return best
}

// Dist returns the geodesic distance from a to b inside the polygon, or
// +Inf when either point lies outside.
func (g *VGraph) Dist(a, b Point) float64 {
	if !g.poly.Contains(a) || !g.poly.Contains(b) {
		return math.Inf(1)
	}
	if g.poly.SegmentInside(a, b) {
		return a.Dist(b)
	}
	sc := g.getScratch()
	g.attachInto(sc.seed, a)
	g.dijkstraInto(sc.dist, sc.done, sc.seed, nil)
	g.attachInto(sc.seed, b)
	d := g.combine(sc.dist, sc.seed)
	g.putScratch(sc)
	return d
}

// DistStop is Dist with a cancellation probe polled between vertex
// settlements of the internal Dijkstra sweep. An aborted sweep returns +Inf;
// callers distinguish that from genuine unreachability by re-checking their
// interruption state. A nil stop is exactly Dist.
func (g *VGraph) DistStop(a, b Point, stop func() bool) float64 {
	if stop == nil {
		return g.Dist(a, b)
	}
	if !g.poly.Contains(a) || !g.poly.Contains(b) {
		return math.Inf(1)
	}
	if g.poly.SegmentInside(a, b) {
		return a.Dist(b)
	}
	sc := g.getScratch()
	g.attachInto(sc.seed, a)
	g.dijkstraInto(sc.dist, sc.done, sc.seed, stop)
	var d float64
	if stop() {
		d = math.Inf(1)
	} else {
		g.attachInto(sc.seed, b)
		d = g.combine(sc.dist, sc.seed)
	}
	g.putScratch(sc)
	return d
}

// DistToAnchor returns the geodesic distance from free point p to anchor i,
// using the precomputed anchor-to-vertex distances.
func (g *VGraph) DistToAnchor(p Point, i int) float64 {
	if !g.poly.Contains(p) {
		return math.Inf(1)
	}
	if g.poly.SegmentInside(p, g.anchors[i]) {
		return p.Dist(g.anchors[i])
	}
	sc := g.getScratch()
	g.attachInto(sc.seed, p)
	d := g.combine(g.anchorVert[i], sc.seed)
	g.putScratch(sc)
	return d
}

// Source is a reusable origin for repeated distance queries from one fixed
// point (e.g. scanning an object bucket from a door): the origin's
// visibility sweep and Dijkstra run once.
type Source struct {
	g *VGraph
	p Point
	// dist[v]: geodesic distance from p to vertex v.
	dist []float64
	ok   bool
}

// SourceFrom prepares a reusable origin at p.
func (g *VGraph) SourceFrom(p Point) *Source {
	s := &Source{g: g, p: p}
	if !g.poly.Contains(p) {
		return s
	}
	s.ok = true
	s.dist = make([]float64, len(g.verts))
	sc := g.getScratch()
	g.attachInto(sc.seed, p)
	g.dijkstraInto(s.dist, sc.done, sc.seed, nil)
	g.putScratch(sc)
	return s
}

// Dist returns the geodesic distance from the source point to b.
func (s *Source) Dist(b Point) float64 {
	if !s.ok || !s.g.poly.Contains(b) {
		return math.Inf(1)
	}
	if s.g.poly.SegmentInside(s.p, b) {
		return s.p.Dist(b)
	}
	sc := s.g.getScratch()
	s.g.attachInto(sc.seed, b)
	d := s.g.combine(s.dist, sc.seed)
	s.g.putScratch(sc)
	return d
}

// MaxDistFrom returns the greatest geodesic distance from point a to any
// polygon vertex.
func (g *VGraph) MaxDistFrom(a Point) float64 {
	if !g.poly.Contains(a) {
		return 0
	}
	sc := g.getScratch()
	g.attachInto(sc.seed, a)
	g.dijkstraInto(sc.dist, sc.done, sc.seed, nil)
	var m float64
	for _, d := range sc.dist {
		if !math.IsInf(d, 1) && d > m {
			m = d
		}
	}
	g.putScratch(sc)
	return m
}

// SizeBytes returns a deep size estimate of the graph's resident
// structures, used by model-size accounting. Anchor-to-anchor distances are
// no longer materialized here; partitions that want them resident pay for
// them through the door-pair distance cache's own accounting.
func (g *VGraph) SizeBytes() int64 {
	nv := int64(len(g.verts))
	na := int64(len(g.anchors))
	return nv*16 + nv*nv*8 + na*nv*8 + na*16
}

// DistToAnchor returns the geodesic distance from the source point to
// anchor i, combining the cached source vector with the precomputed
// anchor-to-vertex distances.
func (s *Source) DistToAnchor(i int) float64 {
	if !s.ok {
		return math.Inf(1)
	}
	if s.g.poly.SegmentInside(s.p, s.g.anchors[i]) {
		return s.p.Dist(s.g.anchors[i])
	}
	return s.g.combine(s.dist, s.g.anchorVert[i])
}

// DistToSource returns the geodesic distance between two prepared sources
// of the same graph at the cost of one visibility test plus one O(V)
// combine — the fast path for static-object bucket scans.
func (s *Source) DistToSource(o *Source) float64 {
	if !s.ok || !o.ok {
		return math.Inf(1)
	}
	if s.g.poly.SegmentInside(s.p, o.p) {
		return s.p.Dist(o.p)
	}
	return s.g.combine(s.dist, o.dist)
}
