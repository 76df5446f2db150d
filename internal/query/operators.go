// Package query implements AT-GIS's spatial query model (paper §2.1,
// Table 3): containment, aggregation, join and combined queries over
// whole features. A Spec is evaluated per feature on the worker (ApplyBox:
// the predicate first, the aggregates only for a match — Fig. 7's
// buffered layout) and the per-block Results fold in input order.
//
// Table 1's operator-to-transducer classification is the paper's. The
// predicates a query can name are the four below, each evaluated on a
// whole feature, so the in-shape associativity Table 1 claims for them
// (one shape split across blocks) is not reproduced here.
package query

import (
	"atgis/internal/geom"
)

// Predicate identifies a spatial relation used for filtering or joining.
type Predicate uint8

// Predicates.
const (
	PredIntersects Predicate = iota
	PredWithin
	PredContains
	PredDisjoint
)

func (p Predicate) String() string {
	switch p {
	case PredIntersects:
		return "ST_Intersects"
	case PredWithin:
		return "ST_Within"
	case PredContains:
		return "ST_Contains"
	case PredDisjoint:
		return "ST_Disjoint"
	default:
		return "?"
	}
}

// Eval applies the predicate between a candidate geometry and the
// reference.
func (p Predicate) Eval(g, ref geom.Geometry) bool {
	switch p {
	case PredIntersects:
		return geom.Intersects(g, ref)
	case PredWithin:
		return geom.Within(g, ref)
	case PredContains:
		return geom.Contains(g, ref)
	case PredDisjoint:
		return geom.Disjoint(g, ref)
	default:
		return false
	}
}
