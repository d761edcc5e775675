// Package geom provides the 2D geometric primitives underlying the indoor
// space model: points, axis-aligned rectangles, segments, rectilinear
// polygons, and visibility-graph shortest paths inside concave polygons.
//
// All coordinates are in meters. The package is deliberately small and
// allocation-conscious: every model/index in this repository funnels its
// geometric computations through these primitives.
package geom

import "math"

// Eps is the tolerance used for all geometric predicates.
const Eps = 1e-9

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{x, y} }

// Dist returns the Euclidean distance from p to q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance from p to q.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Eq reports whether p and q coincide within Eps.
func (p Point) Eq(q Point) bool {
	return math.Abs(p.X-q.X) <= Eps && math.Abs(p.Y-q.Y) <= Eps
}

// Mid returns the midpoint of p and q.
func (p Point) Mid(q Point) Point {
	return Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2}
}

// Rect is an axis-aligned rectangle. A Rect is valid when MinX <= MaxX and
// MinY <= MaxY; the zero Rect is a valid degenerate rectangle at the origin.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// R is shorthand for a Rect with the given corners.
func R(minX, minY, maxX, maxY float64) Rect {
	return Rect{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}
}

// RectAround returns the degenerate rectangle covering only p.
func RectAround(p Point) Rect { return Rect{p.X, p.Y, p.X, p.Y} }

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Margin returns the half-perimeter of r.
func (r Rect) Margin() float64 { return r.Width() + r.Height() }

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
}

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX-Eps && p.X <= r.MaxX+Eps &&
		p.Y >= r.MinY-Eps && p.Y <= r.MaxY+Eps
}

// Intersects reports whether r and s overlap (touching counts).
func (r Rect) Intersects(s Rect) bool {
	return r.MinX <= s.MaxX+Eps && s.MinX <= r.MaxX+Eps &&
		r.MinY <= s.MaxY+Eps && s.MinY <= r.MaxY+Eps
}

// Union returns the smallest rectangle covering both r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		MinX: math.Min(r.MinX, s.MinX),
		MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX),
		MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

// Enlargement returns the area growth of r needed to cover s.
func (r Rect) Enlargement(s Rect) float64 {
	return r.Union(s).Area() - r.Area()
}

// MinDist returns the minimum Euclidean distance from p to any point of r;
// zero when p is inside r.
func (r Rect) MinDist(p Point) float64 {
	dx := math.Max(0, math.Max(r.MinX-p.X, p.X-r.MaxX))
	dy := math.Max(0, math.Max(r.MinY-p.Y, p.Y-r.MaxY))
	return math.Hypot(dx, dy)
}

// MaxDist returns the maximum Euclidean distance from p to any point of r.
func (r Rect) MaxDist(p Point) float64 {
	dx := math.Max(math.Abs(p.X-r.MinX), math.Abs(p.X-r.MaxX))
	dy := math.Max(math.Abs(p.Y-r.MinY), math.Abs(p.Y-r.MaxY))
	return math.Hypot(dx, dy)
}

// Segment is a directed line segment from A to B.
type Segment struct {
	A, B Point
}

// Seg is shorthand for Segment{a, b}.
func Seg(a, b Point) Segment { return Segment{a, b} }

// Length returns the Euclidean length of s.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// Mid returns the midpoint of s.
func (s Segment) Mid() Point { return s.A.Mid(s.B) }

// cross returns the z component of (b-a) x (c-a).
func cross(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// onSegment reports whether point c, known to be collinear with [a,b],
// lies within the segment's bounding box. The builtin min and max follow
// math.Min and math.Max's NaN and signed-zero rules.
func onSegment(a, b, c Point) bool {
	return c.X >= min(a.X, b.X)-Eps && c.X <= max(a.X, b.X)+Eps &&
		c.Y >= min(a.Y, b.Y)-Eps && c.Y <= max(a.Y, b.Y)+Eps
}

// ContainsPoint reports whether p lies on segment s: within the segment's
// bounding box and within Eps·(1+length) of its line. The box test runs
// first because it is cheap and rejects almost every point a polygon scan
// asks about; both tests are pure, so the order does not change the answer.
func (s Segment) ContainsPoint(p Point) bool {
	if !onSegment(s.A, s.B, p) {
		return false
	}
	return !(math.Abs(cross(s.A, s.B, p)) > Eps*(1+s.Length()))
}

// Intersects reports whether segments s and t share any point,
// including endpoint touches and collinear overlaps.
func (s Segment) Intersects(t Segment) bool {
	d1 := cross(t.A, t.B, s.A)
	d2 := cross(t.A, t.B, s.B)
	d3 := cross(s.A, s.B, t.A)
	d4 := cross(s.A, s.B, t.B)
	if ((d1 > Eps && d2 < -Eps) || (d1 < -Eps && d2 > Eps)) &&
		((d3 > Eps && d4 < -Eps) || (d3 < -Eps && d4 > Eps)) {
		return true
	}
	if math.Abs(d1) <= Eps && onSegment(t.A, t.B, s.A) {
		return true
	}
	if math.Abs(d2) <= Eps && onSegment(t.A, t.B, s.B) {
		return true
	}
	if math.Abs(d3) <= Eps && onSegment(s.A, s.B, t.A) {
		return true
	}
	if math.Abs(d4) <= Eps && onSegment(s.A, s.B, t.B) {
		return true
	}
	return false
}

// ProperlyCrosses reports whether s and t cross at a single interior point of
// both segments (endpoint touches and collinear overlaps do not count).
func (s Segment) ProperlyCrosses(t Segment) bool {
	d1 := cross(t.A, t.B, s.A)
	d2 := cross(t.A, t.B, s.B)
	d3 := cross(s.A, s.B, t.A)
	d4 := cross(s.A, s.B, t.B)
	return ((d1 > Eps && d2 < -Eps) || (d1 < -Eps && d2 > Eps)) &&
		((d3 > Eps && d4 < -Eps) || (d3 < -Eps && d4 > Eps))
}
