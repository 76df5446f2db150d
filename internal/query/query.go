package query

import (
	"math"

	"atgis/internal/geom"
	"atgis/internal/geom/kernel"
	"atgis/internal/partition"
)

// Kind enumerates the Table-3 query classes.
type Kind uint8

// Query kinds.
const (
	Containment Kind = iota
	Aggregation
	Join
	Combined
)

func (k Kind) String() string {
	switch k {
	case Containment:
		return "containment"
	case Aggregation:
		return "aggregation"
	case Join:
		return "join"
	default:
		return "combined"
	}
}

// Spec describes a single-pass query (containment or aggregation) in the
// form of Table 3.
type Spec struct {
	Kind Kind
	// Ref is the reference region; predicates compare candidates to it.
	Ref geom.Geometry
	// RefBox is the reference MBR, used for cheap prefiltering. Set
	// automatically by Normalize.
	RefBox geom.Box
	// Pred is the filter predicate (ST_Intersects in Table 3).
	Pred Predicate
	// Dist selects the distance computation for perimeters.
	Dist geom.DistanceMethod
	// KeepMatches buffers matching features (containment result set).
	KeepMatches bool
	// WantArea / WantPerimeter / WantMBR / WantHull select aggregates.
	WantArea      bool
	WantPerimeter bool
	WantMBR       bool
	WantHull      bool

	// kref is the compiled kernel state of a Polygon reference (edge
	// and ring slabs filled once by Normalize, shared read-only by
	// every worker's evaluator). nil on un-normalized specs or
	// non-polygon references; the scalar path covers those.
	kref *kernel.RefPoly
}

// Normalize fills derived fields.
func (s *Spec) Normalize() {
	if s.Ref != nil {
		s.RefBox = s.Ref.Bound()
	}
	s.kref = nil
	if ref, ok := s.Ref.(geom.Polygon); ok {
		s.kref = kernel.CompileRef(ref)
	}
}

// Match is one feature accepted by a containment query.
type Match struct {
	ID     int64
	Offset int64
	Box    geom.Box
}

// Result is the associatively-mergeable fragment of a single-pass query:
// numeric aggregates map directly into the pipeline (paper §4.4(3)),
// matches buffer for output.
type Result struct {
	Count        int64
	SumArea      float64
	SumPerimeter float64
	MBR          geom.Box
	HullPts      []geom.Point
	Matches      []Match
	// Scanned counts all features examined (matched or not).
	Scanned int64
}

// NewResult returns the merge-identity result.
func NewResult() *Result {
	return &Result{MBR: geom.EmptyBox()}
}

// Merge absorbs another fragment; all components are associative.
func (r *Result) Merge(o *Result) {
	if o == nil {
		return
	}
	r.Count += o.Count
	r.SumArea += o.SumArea
	r.SumPerimeter += o.SumPerimeter
	r.MBR = r.MBR.Union(o.MBR)
	r.HullPts = append(r.HullPts, o.HullPts...)
	r.Matches = append(r.Matches, o.Matches...)
	r.Scanned += o.Scanned
}

// Hull finalises the convex hull aggregate.
func (r *Result) Hull() geom.Polygon { return geom.HullOfPoints(r.HullPts) }

// FeatureVal is the per-feature outcome of a Spec, computable inside the
// parallel phase with no shared state (the transformation stage of
// Fig. 6). Matched features carry their aggregates and, when the Spec
// reads it (a reference to prefilter against, WantMBR, KeepMatches),
// their bounding box.
type FeatureVal struct {
	Matched         bool
	Area, Perimeter float64
	Box             geom.Box
}

// needsBox reports whether evaluating the spec reads a feature's
// bounding box: the MBR prefilter, the MBR aggregate, the match records.
func (s *Spec) needsBox() bool { return s.Ref != nil || s.WantMBR || s.KeepMatches }

// Apply computes the Spec's per-feature outcome.
func Apply(s *Spec, f *geom.Feature) FeatureVal {
	if f.Geom == nil {
		return FeatureVal{}
	}
	var box geom.Box
	if s.needsBox() {
		box = f.Geom.Bound()
	}
	return ApplyBox(s, f, box)
}

// ApplyBox is Apply for a caller that already holds f.Geom.Bound() (the
// GeoJSON scanner computes it while parsing). The predicate runs first
// and the aggregates only for a match — Fig. 7's buffered layout, which
// costs no buffering here: every format hands over the whole feature.
func ApplyBox(s *Spec, f *geom.Feature, box geom.Box) FeatureVal {
	if f.Geom == nil {
		return FeatureVal{}
	}
	e := Evaluator{Spec: s}
	if !e.match(f, box) {
		return FeatureVal{}
	}
	area, perim := e.compute(f)
	return FeatureVal{Matched: true, Area: area, Perimeter: perim, Box: box}
}

// Absorb folds a per-feature outcome into the result fragment.
func (r *Result) Absorb(s *Spec, f *geom.Feature, v FeatureVal) {
	r.Scanned++
	if !v.Matched {
		return
	}
	r.Count++
	r.SumArea += v.Area
	r.SumPerimeter += v.Perimeter
	if s.WantMBR {
		r.MBR = r.MBR.Union(v.Box)
	}
	if s.WantHull {
		f.Geom.EachPoint(func(p geom.Point) bool {
			r.HullPts = append(r.HullPts, p)
			return true
		})
	}
	if s.KeepMatches {
		r.Matches = append(r.Matches, Match{ID: f.ID, Offset: f.Offset, Box: v.Box})
	}
}

// Evaluator applies a Spec to one feature: ApplyBox's predicate and
// aggregates.
type Evaluator struct {
	Spec *Spec
}

// match runs the MBR prefilter on b, the feature's bounding box, followed
// by the exact predicate.
func (e *Evaluator) match(f *geom.Feature, b geom.Box) bool {
	s := e.Spec
	if s.Ref == nil {
		return true
	}
	switch s.Pred {
	case PredDisjoint:
		// MBR disjointness proves geometry disjointness.
		if !b.Intersects(s.RefBox) {
			return true
		}
	case PredWithin:
		if !s.RefBox.ContainsBox(b) {
			return false
		}
	default:
		if !b.Intersects(s.RefBox) {
			return false
		}
	}
	if s.kref != nil && !kernel.Disabled() {
		// Batched refinement against the compiled reference slabs —
		// bit-identical to the scalar predicates (the kernel package's
		// differential harness is the proof), so the toggle changes
		// cost, never results.
		switch s.Pred {
		case PredIntersects:
			return evalKernel(s.kref, f.Geom, false, false)
		case PredDisjoint:
			return evalKernel(s.kref, f.Geom, true, false)
		case PredWithin:
			return evalKernel(s.kref, f.Geom, false, true)
		}
	}
	return s.Pred.Eval(f.Geom, s.Ref)
}

// evalKernel runs one kernelized predicate evaluation with pooled
// scratch: Intersects (negated for Disjoint) or Within.
func evalKernel(kref *kernel.RefPoly, g geom.Geometry, negate, within bool) bool {
	sc := kernel.AcquireScratch()
	var hit bool
	if within {
		hit = kref.Within(g, sc)
	} else {
		hit = kref.Intersects(g, sc)
	}
	kernel.ReleaseScratch(sc)
	return hit != negate
}

// compute produces the per-feature aggregate values.
func (e *Evaluator) compute(f *geom.Feature) (area, perim float64) {
	s := e.Spec
	if s.WantArea {
		area = geom.SphericalArea(f.Geom)
	}
	if s.WantPerimeter {
		perim = geom.Perimeter(f.Geom, s.Dist)
	}
	return area, perim
}

// SideA and SideB are the bits of a PartitionSink side mask.
const (
	SideA uint8 = 1 << iota
	SideB
)

// PartitionSink bins features for the first pass of a join query (the
// Partition pipeline of Fig. 6).
type PartitionSink struct {
	// Mask routes features to the join sides: bit SideA and/or SideB.
	// Table 3's join query splits one dataset into disjoint subsets by
	// id; the combined query's filters may place an object on both
	// sides. nil means SideA only.
	Mask func(f *geom.Feature) uint8
	Sets [2]*partition.Set
}

// NewPartitionSink builds sinks for both join sides over the same grid.
func NewPartitionSink(g partition.Grid, kind partition.StoreKind, mask func(f *geom.Feature) uint8) *PartitionSink {
	return &PartitionSink{
		Mask: mask,
		Sets: [2]*partition.Set{partition.NewSet(g, kind), partition.NewSet(g, kind)},
	}
}

// Consume bins one feature.
func (p *PartitionSink) Consume(f *geom.Feature) {
	if f.Geom != nil {
		p.ConsumeBox(f, f.Geom.Bound())
	}
}

// ConsumeBox bins one feature whose bounding box the caller already
// holds; f.Geom is read by the mask only.
func (p *PartitionSink) ConsumeBox(f *geom.Feature, box geom.Box) {
	mask := SideA
	if p.Mask != nil {
		mask = p.Mask(f)
	}
	e := partition.Entry{Box: box, Off: f.Offset, ID: f.ID}
	if mask&SideA != 0 {
		p.Sets[0].Insert(e)
	}
	if mask&SideB != 0 {
		p.Sets[1].Insert(e)
	}
}

// LoadTape bins a recorded feature tape — ids, offsets and boxes in
// consume order — into the empty sink: what ConsumeBox on every entry
// with a non-empty box leaves, for a Mask that reads nothing but a
// feature's ID, Offset and bounds. The mask runs once per entry and sees
// the box as the feature's geometry, through one polygon reused for every
// entry, so it must not keep it.
func (p *PartitionSink) LoadTape(ids, offs []int64, boxes []geom.Box) {
	entries := make([]partition.Entry, 0, len(boxes))
	sides := make([]uint8, 0, len(boxes))
	ring := make(geom.Ring, 5)
	f := geom.Feature{Geom: geom.Polygon{ring}}
	for i, b := range boxes {
		if b.IsEmpty() {
			continue
		}
		mask := SideA
		if p.Mask != nil {
			ring[0], ring[1] = geom.Point{X: b.MinX, Y: b.MinY}, geom.Point{X: b.MaxX, Y: b.MinY}
			ring[2], ring[3] = geom.Point{X: b.MaxX, Y: b.MaxY}, geom.Point{X: b.MinX, Y: b.MaxY}
			ring[4] = ring[0]
			f.ID, f.Offset = ids[i], offs[i]
			mask = p.Mask(&f)
		}
		entries = append(entries, partition.Entry{Box: b, Off: offs[i], ID: ids[i]})
		sides = append(sides, mask)
	}
	p.Sets[0].Load(entries, func(i int) bool { return sides[i]&SideA != 0 })
	p.Sets[1].Load(entries, func(i int) bool { return sides[i]&SideB != 0 })
}

// ScaleBox returns a box centred like b whose area is frac of extent,
// used by the Fig. 13 selectivity sweeps.
func ScaleBox(extent geom.Box, frac float64) geom.Box {
	if frac <= 0 {
		return geom.EmptyBox()
	}
	if frac >= 1 {
		return extent
	}
	w := (extent.MaxX - extent.MinX) * math.Sqrt(frac)
	h := (extent.MaxY - extent.MinY) * math.Sqrt(frac)
	c := extent.Center()
	return geom.Box{MinX: c.X - w/2, MinY: c.Y - h/2, MaxX: c.X + w/2, MaxY: c.Y + h/2}
}
