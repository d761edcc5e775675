package geom

import (
	"math"
	"math/rand"
	"testing"
)

// containsRef is the two-pass containment kernel Polygon.Contains replaced,
// kept as its reference: every edge's boundary test (cross product first,
// then the bounding box), then a separate ray-casting pass.
func containsRef(p Polygon, q Point) bool {
	n := len(p)
	if n < 3 {
		return false
	}
	for i := 0; i < n; i++ {
		s := p.Edge(i)
		if math.Abs(cross(s.A, s.B, q)) <= Eps*(1+s.Length()) &&
			q.X >= math.Min(s.A.X, s.B.X)-Eps && q.X <= math.Max(s.A.X, s.B.X)+Eps &&
			q.Y >= math.Min(s.A.Y, s.B.Y)-Eps && q.Y <= math.Max(s.A.Y, s.B.Y)+Eps {
			return true
		}
	}
	inside := false
	for i := 0; i < n; i++ {
		a, b := p[i], p[(i+1)%n]
		if (a.Y > q.Y) != (b.Y > q.Y) {
			x := a.X + (q.Y-a.Y)*(b.X-a.X)/(b.Y-a.Y)
			if x > q.X {
				inside = !inside
			}
		}
	}
	return inside
}

// histogramPoly returns a random rectilinear polygon: k columns of random
// widths and heights standing on y = 0, in CCW order, shifted by a random
// offset so coordinates are not all small integers.
func histogramPoly(rng *rand.Rand) Polygon {
	k := 1 + rng.Intn(6)
	xs := make([]float64, k+1)
	hs := make([]float64, k)
	for i := 1; i <= k; i++ {
		xs[i] = xs[i-1] + 0.5 + rng.Float64()*20
	}
	for i := range hs {
		hs[i] = 0.5 + float64(rng.Intn(8))*2.5
	}
	ox, oy := rng.Float64()*1000-500, rng.Float64()*1000-500
	poly := Polygon{{xs[0], 0}, {xs[k], 0}}
	for i := k - 1; i >= 0; i-- {
		if i < k-1 && hs[i] == hs[i+1] {
			poly[len(poly)-1].X = xs[i] // extend the previous top edge
			continue
		}
		poly = append(poly, Point{xs[i+1], hs[i]}, Point{xs[i], hs[i]})
	}
	for i := range poly {
		poly[i].X += ox
		poly[i].Y += oy
	}
	return poly
}

// fuzzPolygon picks the polygon of one fuzz case: a rectangle, the
// L-shape, or a random rectilinear histogram polygon.
func fuzzPolygon(shape uint8, seed int64) Polygon {
	rng := rand.New(rand.NewSource(seed))
	switch shape % 3 {
	case 0:
		x, y := rng.Float64()*200-100, rng.Float64()*200-100
		return RectPoly(R(x, y, x+0.1+rng.Float64()*50, y+0.1+rng.Float64()*50))
	case 1:
		return lShape()
	default:
		return histogramPoly(rng)
	}
}

// fuzzPoint places the query point of one fuzz case relative to poly: on a
// vertex, on an edge, Eps or 2Eps to either side of an edge, next to a
// vertex, inside or around the polygon's box, or at the raw coordinates
// (which may be NaN or infinite).
func fuzzPoint(poly Polygon, mode uint8, u, v float64) Point {
	frac := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0.5
		}
		return math.Abs(x - math.Trunc(x))
	}
	i := int(frac(u)*1e6) % len(poly)
	e := poly.Edge(i)
	t := frac(v)
	on := Point{e.A.X + t*(e.B.X-e.A.X), e.A.Y + t*(e.B.Y-e.A.Y)}
	// Unit normal of the edge (edges here are axis-aligned, so exact).
	nx, ny := e.B.Y-e.A.Y, e.A.X-e.B.X
	if l := math.Hypot(nx, ny); l > 0 {
		nx, ny = nx/l, ny/l
	}
	off := func(d float64) Point { return Point{on.X + d*nx, on.Y + d*ny} }
	switch mode % 10 {
	case 0:
		return poly[i]
	case 1:
		return on
	case 2:
		return off(Eps)
	case 3:
		return off(-Eps)
	case 4:
		return off(2 * Eps)
	case 5:
		return off(-2 * Eps)
	case 6:
		d := []float64{-2 * Eps, -Eps, Eps, 2 * Eps}
		return Point{poly[i].X + d[int(frac(u)*97)%4], poly[i].Y + d[int(frac(v)*89)%4]}
	case 7, 8:
		b := poly.Bounds()
		pad := 0.0
		if mode%10 == 8 {
			pad = 5
		}
		return Point{b.MinX - pad + frac(u)*(b.Width()+2*pad), b.MinY - pad + frac(v)*(b.Height()+2*pad)}
	default:
		return Point{u, v}
	}
}

// FuzzPolygonContains checks the one-pass Contains against the two-pass
// reference kernel on rectangles, the L-shape and random rectilinear
// polygons, at points on and around their boundaries.
func FuzzPolygonContains(f *testing.F) {
	for shape := uint8(0); shape < 3; shape++ {
		for mode := uint8(0); mode < 10; mode++ {
			f.Add(shape, int64(shape)*7+int64(mode), mode, 0.37, 0.61)
		}
	}
	f.Add(uint8(2), int64(3), uint8(9), math.NaN(), 1.0)
	f.Add(uint8(1), int64(0), uint8(9), 2.0, 2.0)
	f.Add(uint8(1), int64(0), uint8(9), math.Inf(1), 1.0)
	f.Fuzz(func(t *testing.T, shape uint8, seed int64, mode uint8, u, v float64) {
		poly := fuzzPolygon(shape, seed)
		q := fuzzPoint(poly, mode, u, v)
		if got, want := poly.Contains(q), containsRef(poly, q); got != want {
			t.Fatalf("Contains(%v) = %v, reference %v, polygon %v", q, got, want, poly)
		}
	})
}

// TestPolygonContainsMatchesReference sweeps the fuzz target's polygon and
// point families deterministically, so the plain test run covers every
// shape and placement mode.
func TestPolygonContainsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	hits := 0
	for n := 0; n < 20000; n++ {
		shape, mode := uint8(n%3), uint8((n/3)%10)
		poly := fuzzPolygon(shape, int64(n/30))
		q := fuzzPoint(poly, mode, rng.Float64()*10, rng.Float64()*10)
		got, want := poly.Contains(q), containsRef(poly, q)
		if got != want {
			t.Fatalf("case %d: Contains(%v) = %v, reference %v, polygon %v", n, q, got, want, poly)
		}
		if got {
			hits++
		}
	}
	if hits < 5000 || hits > 15000 {
		t.Fatalf("%d of 20000 points inside: the sweep does not exercise both answers", hits)
	}
}
