package kernel

import "atgis/internal/geom"

// This file lifts the whole-geometry predicates onto the kernels. Each
// composite mirrors its scalar counterpart's structure exactly —
// geom.Intersects / geom.Within stay the oracle — replacing only the
// O(|a|·|b|) edge sweep (the dominant cost) with the slab kernels; the
// rare tails (containment probes, all-vertices-on-boundary) stay
// scalar or delegate to the oracle wholesale, which is trivially
// bit-identical because the predicates are deterministic.

// anyIntersectStream reports whether any edge of g intersects any edge
// of the prepared slab, streaming g's edges instead of materialising
// them — the first hit stops the walk without paying for the rest of
// g's edge list. Streaming swaps which segment of each tested pair is
// "ab" in SegmentsIntersect, which cannot change the boolean: the swap
// permutes the orientation quadruple (o1,o2,o3,o4) → (o3,o4,o1,o2)
// with identical IEEE expressions, and both the general test and the
// four collinear clauses are invariant under that permutation.
func anyIntersectStream(s *EdgeSlab, g geom.Geometry) bool {
	hit := false
	g.EachEdge(func(a, b geom.Point) bool {
		if s.AnyIntersectEdge(a, b) {
			hit = true
			return false
		}
		return true
	})
	return hit
}

// IntersectsPreparedA mirrors geom.Intersects(a, b) with the edge sweep
// batched and a's edge slab ae pre-filled: the join's refinement runs
// one A geometry against many Bs, so A's slab fills once per run and
// each B streams against it without being materialised at all.
func IntersectsPreparedA(a geom.Geometry, ae *EdgeSlab, b geom.Geometry) bool {
	if a == nil || b == nil {
		return false
	}
	if !a.Bound().Intersects(b.Bound()) {
		return false
	}
	if anyIntersectStream(ae, b) {
		return true
	}
	return intersectsTail(a, b)
}

// intersectsTail is the no-edge-crossing tail of the intersects
// composites: either disjoint or one fully inside the other. The check
// order is geom.Intersects', verbatim.
func intersectsTail(a, b geom.Geometry) bool {
	if geom.IsAreal(a) && geom.ContainsRepresentative(a, b) {
		return true
	}
	if geom.IsAreal(b) && geom.ContainsRepresentative(b, a) {
		return true
	}
	if pa, ok := a.(geom.PointGeom); ok {
		return geom.CoversPoint(b, pa.P)
	}
	if pb, ok := b.(geom.PointGeom); ok {
		return geom.CoversPoint(a, pb.P)
	}
	return false
}

// RefPoly is a compiled reference polygon: its edge slab and ring slab
// are filled once and shared read-only by every worker evaluating
// features against the same reference (the serving containment path).
type RefPoly struct {
	Poly  geom.Polygon
	Edges EdgeSlab
	rings PolySlab
	// ringsOK records whether the polygon has a usable outer ring; when
	// false the Within vertex fold delegates to the scalar oracle.
	ringsOK bool
}

// CompileRef builds the reference slabs for p. Returns nil for an
// empty polygon, whose predicates the scalar path handles as cheaply.
func CompileRef(p geom.Polygon) *RefPoly {
	if len(p) == 0 {
		return nil
	}
	r := &RefPoly{Poly: p}
	r.Edges.AppendGeometry(p)
	r.ringsOK = r.rings.SetPolygon(p)
	return r
}

// Intersects evaluates geom.Intersects(g, r.Poly) with the reference
// side's slab pre-filled; g's edges stream against it unmaterialised.
func (r *RefPoly) Intersects(g geom.Geometry) bool {
	if g == nil {
		return false
	}
	if !g.Bound().Intersects(geom.Geometry(r.Poly).Bound()) {
		return false
	}
	if anyIntersectStream(&r.Edges, g) {
		return true
	}
	return intersectsTail(g, r.Poly)
}

// Within evaluates geom.Within(g, r.Poly): no proper edge crossing
// (AnyCrossEdge kernel), every vertex of g covered by the reference
// (LocateBatch over the compiled ring slab), with the scalar oracle
// deciding the rare all-vertices-on-boundary and degenerate-reference
// cases.
func (r *RefPoly) Within(g geom.Geometry, s *Scratch) bool {
	if g == nil {
		return false
	}
	if pg, ok := g.(geom.PointGeom); ok {
		return geom.CoversPoint(r.Poly, pg.P)
	}
	if !geom.Geometry(r.Poly).Bound().ContainsBox(g.Bound()) {
		return false
	}
	// Stream g's edges against the compiled reference slab; the swap of
	// which segment is "ab" cannot change SegmentsCross (the permuted
	// orientation quadruple leaves the all-nonzero-and-differing test
	// invariant).
	crossed := false
	g.EachEdge(func(a, b geom.Point) bool {
		if r.Edges.AnyCrossEdge(a, b) {
			crossed = true
			return false
		}
		return true
	})
	if crossed {
		return false
	}
	if !r.ringsOK {
		// No usable outer ring: the scalar locate calls every vertex
		// Outside; let the oracle spell out the consequences.
		return geom.Within(g, r.Poly)
	}
	s.PX = s.PX[:0]
	s.PY = s.PY[:0]
	g.EachPoint(func(p geom.Point) bool {
		s.PX = append(s.PX, p.X)
		s.PY = append(s.PY, p.Y)
		return true
	})
	LocateBatch(&r.rings, s.PX, s.PY, &s.Loc)
	interior := false
	for i := range s.PX {
		if s.Loc.Inside.Get(i) {
			interior = true
		} else if !s.Loc.Boundary.Get(i) {
			return false // a vertex strictly outside refutes within
		}
	}
	if interior {
		return true
	}
	// Every vertex on the boundary (rare): the scalar interior probe
	// decides; recomputing the cheap prefix is bit-identical.
	return geom.Within(g, r.Poly)
}
