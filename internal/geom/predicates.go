package geom

import "math"

// Orientation classifies the turn a→b→c: +1 counter-clockwise, -1
// clockwise, 0 collinear.
func Orientation(a, b, c Point) int {
	v := b.Sub(a).Cross(c.Sub(a))
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}

// onSegment reports whether collinear point p lies on segment ab.
func onSegment(a, b, p Point) bool {
	return math.Min(a.X, b.X) <= p.X && p.X <= math.Max(a.X, b.X) &&
		math.Min(a.Y, b.Y) <= p.Y && p.Y <= math.Max(a.Y, b.Y)
}

// PointOnSegment reports whether p lies on segment ab (collinear and
// within its bounding box). This is the exact per-edge boundary test of
// LocatePointInRing, exported so the batched kernels' rare-path boundary
// pass shares the scalar arithmetic bit for bit.
func PointOnSegment(a, b, p Point) bool {
	return Orientation(a, b, p) == 0 && onSegment(a, b, p)
}

// SegmentsIntersect reports whether segments ab and cd share any point,
// including endpoint touches and collinear overlap.
func SegmentsIntersect(a, b, c, d Point) bool {
	o1 := Orientation(a, b, c)
	o2 := Orientation(a, b, d)
	o3 := Orientation(c, d, a)
	o4 := Orientation(c, d, b)
	if o1 != o2 && o3 != o4 {
		return true
	}
	if o1 == 0 && onSegment(a, b, c) {
		return true
	}
	if o2 == 0 && onSegment(a, b, d) {
		return true
	}
	if o3 == 0 && onSegment(c, d, a) {
		return true
	}
	if o4 == 0 && onSegment(c, d, b) {
		return true
	}
	return false
}

// SegmentsCross reports whether ab and cd intersect at a single interior
// point of both (a "proper" crossing, excluding touches).
func SegmentsCross(a, b, c, d Point) bool {
	o1 := Orientation(a, b, c)
	o2 := Orientation(a, b, d)
	o3 := Orientation(c, d, a)
	o4 := Orientation(c, d, b)
	return o1 != 0 && o2 != 0 && o3 != 0 && o4 != 0 && o1 != o2 && o3 != o4
}

// PointLocation is the result of a point-in-ring test.
type PointLocation int8

// Point locations relative to a ring or polygon.
const (
	Outside    PointLocation = -1
	OnBoundary PointLocation = 0
	Inside     PointLocation = 1
)

// EffectiveRing returns the vertex span of r whose edge cycle the
// point-location loop walks: every trailing repetition of the first
// vertex is dropped (rings from lax producers may close more than once,
// i.e. repeat the first vertex at the end several times), so the wrap
// edge (last, first) is the real closing edge rather than a zero-length
// stub. Repetitions of the first vertex strictly mid-ring are kept —
// they are genuine (degenerate but harmless) vertices of the cycle. ok
// is false when fewer than 3 vertices remain. The batched refinement
// kernels fill their coordinate slabs from the same span, which is what
// makes kernel and scalar edge sets identical by construction.
func EffectiveRing(r Ring) (Ring, bool) {
	n := len(r)
	// Extra closings beyond the first: only strip while at least three
	// vertices survive the final closing-vertex skip below, so maximally
	// degenerate rings like [A,B,A,A] keep their historical edge cycle.
	for n > 4 && r[0].Equal(r[n-1]) && r[0].Equal(r[n-2]) {
		n--
	}
	if n >= 3 && r[0].Equal(r[n-1]) {
		n-- // skip the duplicate closing vertex
	}
	if n < 3 {
		return nil, false
	}
	return r[:n], true
}

// LocatePointInRing classifies p against the ring using the crossing
// number method with boundary detection. The ring need not be explicitly
// closed, and may close redundantly (trailing repeats of the first
// vertex are ignored — see EffectiveRing).
func LocatePointInRing(p Point, r Ring) PointLocation {
	eff, ok := EffectiveRing(r)
	if !ok {
		return Outside
	}
	inside := false
	j := len(eff) - 1
	for i := 0; i < len(eff); i++ {
		a, b := eff[j], eff[i]
		if Orientation(a, b, p) == 0 && onSegment(a, b, p) {
			return OnBoundary
		}
		if (a.Y > p.Y) != (b.Y > p.Y) {
			x := a.X + (p.Y-a.Y)*(b.X-a.X)/(b.Y-a.Y)
			if x > p.X {
				inside = !inside
			}
		}
		j = i
	}
	if inside {
		return Inside
	}
	return Outside
}

// LocatePointInPolygon classifies p against a polygon with holes.
func LocatePointInPolygon(p Point, poly Polygon) PointLocation {
	if len(poly) == 0 {
		return Outside
	}
	switch LocatePointInRing(p, poly[0]) {
	case Outside:
		return Outside
	case OnBoundary:
		return OnBoundary
	}
	for _, hole := range poly[1:] {
		switch LocatePointInRing(p, hole) {
		case Inside:
			return Outside
		case OnBoundary:
			return OnBoundary
		}
	}
	return Inside
}

// PolygonContainsPoint reports whether p is inside or on the boundary of
// poly.
func PolygonContainsPoint(p Point, poly Polygon) bool {
	return LocatePointInPolygon(p, poly) != Outside
}

// edgesIntersect reports whether any edge of a intersects any edge of b.
// This is the paper's edge-testing algorithm: O(|a|·|b|) with an MBR
// prefilter per edge pair avoided in favour of a whole-geometry check by
// callers.
func edgesIntersect(a, b Geometry) bool {
	hit := false
	a.EachEdge(func(p1, p2 Point) bool {
		b.EachEdge(func(q1, q2 Point) bool {
			if SegmentsIntersect(p1, p2, q1, q2) {
				hit = true
				return false
			}
			return true
		})
		return !hit
	})
	return hit
}

// edgesCross reports whether any edge of a properly crosses any edge of b.
func edgesCross(a, b Geometry) bool {
	hit := false
	a.EachEdge(func(p1, p2 Point) bool {
		b.EachEdge(func(q1, q2 Point) bool {
			if SegmentsCross(p1, p2, q1, q2) {
				hit = true
				return false
			}
			return true
		})
		return !hit
	})
	return hit
}

// containsRepresentative reports whether some part of inner has a vertex
// inside (or on) the polygonal area of outer. outer must be area-typed.
// It probes one vertex per part — each polygon of a multipolygon, each
// member of a collection — because with no edge crossing a part lies
// wholly inside outer or wholly outside it, independently of the others:
// one probe for the whole geometry misses a part inside outer whenever
// an earlier part lies outside. A part's vertex is its first in storage
// order, read by a type switch: a closure through EachPoint would escape
// to the heap on every call.
func containsRepresentative(outer, inner Geometry) bool {
	switch t := inner.(type) {
	case PointGeom:
		return geometryCoversPoint(outer, t.P)
	case LineString:
		return len(t) > 0 && geometryCoversPoint(outer, t[0])
	case Polygon:
		p, ok := firstVertex(t)
		return ok && geometryCoversPoint(outer, p)
	case MultiPolygon:
		for _, poly := range t {
			if p, ok := firstVertex(poly); ok && geometryCoversPoint(outer, p) {
				return true
			}
		}
	case Collection:
		for _, m := range t {
			if containsRepresentative(outer, m) {
				return true
			}
		}
	}
	return false
}

// firstVertex returns the first vertex of p's first non-empty ring.
func firstVertex(p Polygon) (Point, bool) {
	for _, r := range p {
		if len(r) > 0 {
			return r[0], true
		}
	}
	return Point{}, false
}

// geometryCoversPoint reports whether p is inside or on the boundary of g
// (for areal g) or on g (for lineal/point g).
func geometryCoversPoint(g Geometry, p Point) bool {
	switch t := g.(type) {
	case PointGeom:
		return t.P.Equal(p)
	case LineString:
		on := false
		t.EachEdge(func(a, b Point) bool {
			if Orientation(a, b, p) == 0 && onSegment(a, b, p) {
				on = true
				return false
			}
			return true
		})
		return on
	case Polygon:
		return PolygonContainsPoint(p, t)
	case MultiPolygon:
		for _, poly := range t {
			if PolygonContainsPoint(p, poly) {
				return true
			}
		}
		return false
	case Collection:
		for _, m := range t {
			if geometryCoversPoint(m, p) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// Intersects implements ST_Intersects for two geometries using the
// paper's strategy (§3.4): test every edge pair for intersection, then
// handle full containment with two point-in-polygon tests — one vertex of
// each geometry against the other.
func Intersects(a, b Geometry) bool {
	if a == nil || b == nil {
		return false
	}
	if !a.Bound().Intersects(b.Bound()) {
		return false
	}
	if edgesIntersect(a, b) {
		return true
	}
	// No edge crossings: either disjoint or one fully inside the other.
	if isAreal(a) && containsRepresentative(a, b) {
		return true
	}
	if isAreal(b) && containsRepresentative(b, a) {
		return true
	}
	// Point/point or point/line cases without edges.
	if pa, ok := a.(PointGeom); ok {
		return geometryCoversPoint(b, pa.P)
	}
	if pb, ok := b.(PointGeom); ok {
		return geometryCoversPoint(a, pb.P)
	}
	return false
}

// IsAreal reports whether g has polygonal area (polygon, multipolygon,
// or a collection containing one). Exported for the batched refinement
// kernels, whose composite predicates replicate Intersects' structure
// outside this package.
func IsAreal(g Geometry) bool { return isAreal(g) }

// CoversPoint reports whether p is inside or on the boundary of g (for
// areal g) or on g (for lineal/point g) — the containment probe of
// Intersects, exported for the batched refinement kernels.
func CoversPoint(g Geometry, p Point) bool { return geometryCoversPoint(g, p) }

// ContainsRepresentative is Intersects' containment probe — some part of
// inner has a vertex covered by outer, which must be areal — exported for
// the batched refinement kernels.
func ContainsRepresentative(outer, inner Geometry) bool {
	return containsRepresentative(outer, inner)
}

func isAreal(g Geometry) bool {
	switch t := g.(type) {
	case Polygon, MultiPolygon:
		return true
	case Collection:
		for _, m := range t {
			if isAreal(m) {
				return true
			}
		}
	}
	return false
}

// Disjoint implements ST_Disjoint: no shared points at all.
func Disjoint(a, b Geometry) bool { return !Intersects(a, b) }

// Within implements ST_Within: every point of a lies in b and the
// interiors intersect. For the polygon workloads of the paper we use the
// edge formulation: no edge of a crosses an edge of b, every vertex of a
// is covered by b, and a is not entirely on b's boundary.
func Within(a, b Geometry) bool {
	if a == nil || b == nil || !isAreal(b) && a.Type() != TypePoint {
		// Only areal containers (or point-in-anything) are supported,
		// matching the polygon-vs-polygon focus of Table 1.
		if pa, ok := a.(PointGeom); ok && b != nil {
			return geometryCoversPoint(b, pa.P)
		}
		return false
	}
	if pa, ok := a.(PointGeom); ok {
		return geometryCoversPoint(b, pa.P)
	}
	if !b.Bound().ContainsBox(a.Bound()) {
		return false
	}
	if edgesCross(a, b) {
		return false
	}
	allIn := true
	interior := false
	a.EachPoint(func(p Point) bool {
		switch locateInAreal(b, p) {
		case Outside:
			allIn = false
			return false
		case Inside:
			interior = true
		}
		return true
	})
	if !allIn {
		return false
	}
	if interior {
		return true
	}
	// All vertices on the boundary: decide by an interior probe point.
	if c, ok := interiorProbe(a); ok {
		return locateInAreal(b, c) != Outside
	}
	return true
}

// interiorProbe returns a point in the interior of an areal geometry, or
// a midpoint of an edge for lineal geometries.
func interiorProbe(g Geometry) (Point, bool) {
	switch t := g.(type) {
	case Polygon:
		return polygonInteriorPoint(t)
	case MultiPolygon:
		for _, poly := range t {
			if p, ok := polygonInteriorPoint(poly); ok {
				return p, ok
			}
		}
	case LineString:
		if len(t) >= 2 {
			return Point{(t[0].X + t[1].X) / 2, (t[0].Y + t[1].Y) / 2}, true
		}
	case Collection:
		for _, m := range t {
			if p, ok := interiorProbe(m); ok {
				return p, ok
			}
		}
	}
	return Point{}, false
}

// polygonInteriorPoint finds a point strictly inside the polygon by
// scanning horizontal lines. Scan heights that coincide with a vertex
// Y-coordinate break the crossing parity, so several fractions of the
// bound height are tried, skipping heights hit by a vertex.
func polygonInteriorPoint(poly Polygon) (Point, bool) {
	if len(poly) == 0 || len(poly[0]) < 3 {
		return Point{}, false
	}
	b := poly.Bound()
	span := b.MaxY - b.MinY
	if span <= 0 {
		return Point{}, false
	}
	fractions := [...]float64{
		0.5, 0.381966, 0.618034, 0.271, 0.729, 0.1618, 0.8382,
		0.09, 0.91, 0.5321, 0.4679, 0.3141, 0.6859,
	}
	for _, frac := range fractions {
		y := b.MinY + float64(span*frac)
		if vertexAtHeight(poly, y) {
			continue
		}
		if p, ok := interiorAtHeight(poly, y); ok {
			return p, true
		}
	}
	// Last resort: the midline even if vertices sit on it.
	return interiorAtHeight(poly, b.MinY+float64(span/2))
}

func vertexAtHeight(poly Polygon, y float64) bool {
	for _, r := range poly {
		for _, p := range r {
			if p.Y == y {
				return true
			}
		}
	}
	return false
}

func interiorAtHeight(poly Polygon, y float64) (Point, bool) {
	var xs []float64
	for _, r := range poly {
		rr := r.Canonical()
		for i := 0; i+1 < len(rr); i++ {
			a, c := rr[i], rr[i+1]
			if (a.Y > y) != (c.Y > y) {
				x := a.X + (y-a.Y)*(c.X-a.X)/(c.Y-a.Y)
				xs = append(xs, x)
			}
		}
	}
	if len(xs) < 2 {
		return Point{}, false
	}
	sortFloats(xs)
	for i := 0; i+1 < len(xs); i++ {
		mid := Point{(xs[i] + xs[i+1]) / 2, y}
		if LocatePointInPolygon(mid, poly) == Inside {
			return mid, true
		}
	}
	return Point{}, false
}

func sortFloats(xs []float64) {
	// Insertion sort: crossing lists are tiny.
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func locateInAreal(g Geometry, p Point) PointLocation {
	switch t := g.(type) {
	case Polygon:
		return LocatePointInPolygon(p, t)
	case MultiPolygon:
		loc := Outside
		for _, poly := range t {
			switch LocatePointInPolygon(p, poly) {
			case Inside:
				return Inside
			case OnBoundary:
				loc = OnBoundary
			}
		}
		return loc
	case Collection:
		loc := Outside
		for _, m := range t {
			if !isAreal(m) {
				continue
			}
			switch locateInAreal(m, p) {
			case Inside:
				return Inside
			case OnBoundary:
				loc = OnBoundary
			}
		}
		return loc
	default:
		return Outside
	}
}

// Contains implements ST_Contains: b within a.
func Contains(a, b Geometry) bool { return Within(b, a) }
