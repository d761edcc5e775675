package geom

import (
	"fmt"
	"math"
)

// Polygon is a simple polygon given by its vertices in counter-clockwise
// order. The closing edge from the last vertex back to the first is implicit.
// Indoor partitions are rectilinear polygons (all edges axis-aligned), but
// the predicates here work for any simple polygon.
type Polygon []Point

// RectPoly returns the four-vertex polygon covering r, in CCW order.
func RectPoly(r Rect) Polygon {
	return Polygon{
		{r.MinX, r.MinY},
		{r.MaxX, r.MinY},
		{r.MaxX, r.MaxY},
		{r.MinX, r.MaxY},
	}
}

// Bounds returns the bounding rectangle of p.
func (p Polygon) Bounds() Rect {
	if len(p) == 0 {
		return Rect{}
	}
	r := RectAround(p[0])
	for _, v := range p[1:] {
		r.MinX = math.Min(r.MinX, v.X)
		r.MinY = math.Min(r.MinY, v.Y)
		r.MaxX = math.Max(r.MaxX, v.X)
		r.MaxY = math.Max(r.MaxY, v.Y)
	}
	return r
}

// Area returns the (signed-positive for CCW) area of p via the shoelace
// formula.
func (p Polygon) Area() float64 {
	n := len(p)
	if n < 3 {
		return 0
	}
	var s float64
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		s += p[i].X*p[j].Y - p[j].X*p[i].Y
	}
	return s / 2
}

// Edge returns the i-th edge of p (from vertex i to vertex i+1 mod n).
func (p Polygon) Edge(i int) Segment {
	return Segment{p[i], p[(i+1)%len(p)]}
}

// Contains reports whether q lies inside p; points on the boundary count as
// inside, since doors sit on partition boundaries. One pass over the edges
// runs each edge's boundary test and then its ray-crossing toggle (a ray
// from q in the +X direction): any boundary hit answers true, otherwise
// the crossing parity decides. Both tests are pure and the parity does not
// depend on edge order, so this equals testing every edge for the boundary
// before casting the ray.
func (p Polygon) Contains(q Point) bool {
	n := len(p)
	if n < 3 {
		return false
	}
	inside := false
	a := p[n-1]
	for _, b := range p {
		if (Segment{a, b}).ContainsPoint(q) {
			return true
		}
		if (a.Y > q.Y) != (b.Y > q.Y) {
			x := a.X + (q.Y-a.Y)*(b.X-a.X)/(b.Y-a.Y)
			if x > q.X {
				inside = !inside
			}
		}
		a = b
	}
	return inside
}

// IsConvex reports whether p is convex (collinear vertices allowed).
func (p Polygon) IsConvex() bool {
	n := len(p)
	if n < 4 {
		return true
	}
	sign := 0
	for i := 0; i < n; i++ {
		c := cross(p[i], p[(i+1)%n], p[(i+2)%n])
		switch {
		case c > Eps:
			if sign < 0 {
				return false
			}
			sign = 1
		case c < -Eps:
			if sign > 0 {
				return false
			}
			sign = -1
		}
	}
	return true
}

// IsRectilinear reports whether every edge of p is axis-aligned.
func (p Polygon) IsRectilinear() bool {
	n := len(p)
	for i := 0; i < n; i++ {
		a, b := p[i], p[(i+1)%n]
		if math.Abs(a.X-b.X) > Eps && math.Abs(a.Y-b.Y) > Eps {
			return false
		}
	}
	return true
}

// Validate reports an error when p is degenerate: fewer than three vertices,
// repeated consecutive vertices, zero area, or clockwise orientation.
func (p Polygon) Validate() error {
	if len(p) < 3 {
		return fmt.Errorf("geom: polygon has %d vertices, need >= 3", len(p))
	}
	for i := range p {
		if p[i].Eq(p[(i+1)%len(p)]) {
			return fmt.Errorf("geom: polygon has repeated vertex %d", i)
		}
	}
	a := p.Area()
	if a <= Eps {
		return fmt.Errorf("geom: polygon area %g is not positive (need CCW orientation)", a)
	}
	return nil
}

// SegmentInside reports whether the open segment a-b lies entirely inside
// polygon p (endpoints may lie on the boundary). This is the visibility
// predicate used to build visibility graphs in concave partitions.
func (p Polygon) SegmentInside(a, b Point) bool {
	if a.Eq(b) {
		return p.Contains(a)
	}
	s := Segment{a, b}
	n := len(p)
	// Any proper crossing with an edge means the segment leaves the polygon.
	for i := 0; i < n; i++ {
		if s.ProperlyCrosses(p.Edge(i)) {
			return false
		}
	}
	// The segment may still run outside through a reflex notch while only
	// touching edges at vertices. Collect all touch parameters along s and
	// check the midpoint of every resulting sub-interval.
	ts := []float64{0, 1}
	for i := 0; i < n; i++ {
		e := p.Edge(i)
		for _, v := range []Point{e.A, e.B} {
			if s.ContainsPoint(v) {
				ts = append(ts, paramOn(s, v))
			}
		}
		// An edge endpoint-free collinear overlap contributes its endpoints,
		// already covered above; a vertex of s lying on e contributes 0/1,
		// also covered. Proper-touch of s's interior with e's interior at a
		// single point happens only when an s endpoint is on e or a p vertex
		// is on s, both handled.
	}
	sortFloats(ts)
	for i := 0; i+1 < len(ts); i++ {
		t0, t1 := ts[i], ts[i+1]
		if t1-t0 <= Eps {
			continue
		}
		m := Point{
			X: a.X + (b.X-a.X)*(t0+t1)/2,
			Y: a.Y + (b.Y-a.Y)*(t0+t1)/2,
		}
		if !p.Contains(m) {
			return false
		}
	}
	return true
}

// paramOn returns the parameter t in [0,1] such that s.A + t*(s.B-s.A) == v,
// assuming v lies on s.
func paramOn(s Segment, v Point) float64 {
	dx, dy := s.B.X-s.A.X, s.B.Y-s.A.Y
	if math.Abs(dx) >= math.Abs(dy) {
		if dx == 0 {
			return 0
		}
		return (v.X - s.A.X) / dx
	}
	return (v.Y - s.A.Y) / dy
}

func sortFloats(xs []float64) {
	// Insertion sort: the slices here are tiny (touch points on one segment).
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// MaxDistFrom returns the greatest geodesic distance from point a (inside or
// on the boundary of p) to any vertex of p, which for a polygon is the
// greatest distance to any point of p. For convex polygons the geodesic is
// the straight line; for concave polygons callers should use a visibility
// graph (see VGraph.MaxDistFrom).
func (p Polygon) MaxDistFrom(a Point) float64 {
	var m float64
	for _, v := range p {
		if d := a.Dist(v); d > m {
			m = d
		}
	}
	return m
}
