package query

import (
	"math"
	"testing"

	"atgis/internal/geom"
	"atgis/internal/partition"
)

func sqf(id int64, x, y, size float64) geom.Feature {
	return geom.Feature{
		ID:     id,
		Offset: id * 100,
		Geom: geom.Polygon{geom.Ring{
			{X: x, Y: y}, {X: x + size, Y: y}, {X: x + size, Y: y + size},
			{X: x, Y: y + size}, {X: x, Y: y},
		}},
	}
}

func TestPredicateEval(t *testing.T) {
	a := geom.Polygon{geom.Ring{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 10}, {X: 0, Y: 10}, {X: 0, Y: 0}}}
	inner := geom.Polygon{geom.Ring{{X: 2, Y: 2}, {X: 4, Y: 2}, {X: 4, Y: 4}, {X: 2, Y: 4}, {X: 2, Y: 2}}}
	far := geom.Polygon{geom.Ring{{X: 50, Y: 50}, {X: 51, Y: 50}, {X: 51, Y: 51}, {X: 50, Y: 51}, {X: 50, Y: 50}}}
	cases := []struct {
		p    Predicate
		g    geom.Geometry
		want bool
	}{
		{PredIntersects, inner, true},
		{PredIntersects, far, false},
		{PredWithin, inner, true},
		{PredWithin, far, false},
		{PredContains, inner, false},
		{PredDisjoint, far, true},
		{PredDisjoint, inner, false},
	}
	for _, tc := range cases {
		if got := tc.p.Eval(tc.g, a); got != tc.want {
			t.Errorf("%v = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestEvaluatorContainment(t *testing.T) {
	ref := geom.Box{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}.AsPolygon()
	spec := &Spec{Kind: Containment, Ref: ref, Pred: PredIntersects, KeepMatches: true}
	spec.Normalize()
	ev := NewEvaluator(spec)
	feats := []geom.Feature{
		sqf(1, 1, 1, 2),    // inside
		sqf(2, 8, 8, 5),    // overlapping
		sqf(3, 50, 50, 2),  // far away
		sqf(4, -5, -5, 20), // containing
	}
	for i := range feats {
		ev.Consume(&feats[i])
	}
	if ev.Res.Count != 3 {
		t.Errorf("count = %d, want 3", ev.Res.Count)
	}
	if len(ev.Res.Matches) != 3 {
		t.Errorf("matches = %d, want 3", len(ev.Res.Matches))
	}
	if ev.Res.Scanned != 4 {
		t.Errorf("scanned = %d, want 4", ev.Res.Scanned)
	}
}

func TestEvaluatorAggregation(t *testing.T) {
	ref := geom.Box{MinX: -180, MinY: -90, MaxX: 180, MaxY: 90}.AsPolygon()
	spec := &Spec{
		Kind: Aggregation, Ref: ref, Pred: PredIntersects, Dist: geom.Haversine,
		WantArea: true, WantPerimeter: true, WantMBR: true, WantHull: true,
	}
	spec.Normalize()
	ev := NewEvaluator(spec)
	f1 := sqf(1, 0, 0, 1)
	f2 := sqf(2, 5, 5, 1)
	ev.Consume(&f1)
	ev.Consume(&f2)
	r := ev.Res
	if r.Count != 2 {
		t.Fatalf("count = %d", r.Count)
	}
	if r.SumArea <= 0 || r.SumPerimeter <= 0 {
		t.Errorf("aggregates not computed: %v %v", r.SumArea, r.SumPerimeter)
	}
	if r.MBR != (geom.Box{MinX: 0, MinY: 0, MaxX: 6, MaxY: 6}) {
		t.Errorf("MBR = %+v", r.MBR)
	}
	hull := r.Hull()
	if len(hull) == 0 || math.Abs(hull[0].SignedArea()) <= 0 {
		t.Error("hull empty")
	}
}

// TestStreamingAndBufferedAgree: ApplyBox tests before it computes (Fig.
// 7's buffered layout); the streaming layout it replaced computed every
// feature's aggregates and dropped those of a miss. Both must sum to the
// same bits (only cost differed, Fig. 13).
func TestStreamingAndBufferedAgree(t *testing.T) {
	ref := ScaleBox(geom.Box{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, 0.25).AsPolygon()
	spec := &Spec{Ref: ref, Pred: PredIntersects,
		WantArea: true, WantPerimeter: true, Dist: geom.SphericalProjection}
	spec.Normalize()
	buffered := NewResult()
	var streamed Result
	for i := int64(0); i < 200; i++ {
		f := sqf(i, float64(i%20)*5, float64(i/20)*10, 3)
		buffered.Absorb(spec, &f, Apply(spec, &f))
		area, perim := geom.SphericalArea(f.Geom), geom.Perimeter(f.Geom, spec.Dist)
		if spec.Pred.Eval(f.Geom, ref) {
			streamed.Count++
			streamed.SumArea += area
			streamed.SumPerimeter += perim
		}
	}
	if streamed.Count == 0 || streamed.Count == 200 {
		t.Fatalf("the window selects %d of 200 features", streamed.Count)
	}
	if buffered.Count != streamed.Count || buffered.SumArea != streamed.SumArea || buffered.SumPerimeter != streamed.SumPerimeter {
		t.Errorf("layouts disagree: %+v vs %+v", buffered, streamed)
	}
}

func TestResultMergeAssociative(t *testing.T) {
	mk := func(c int64, area float64, m geom.Box) *Result {
		r := NewResult()
		r.Count = c
		r.SumArea = area
		r.MBR = m
		r.Matches = []Match{{ID: c}}
		return r
	}
	a := mk(1, 2, geom.Box{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1})
	b := mk(10, 20, geom.Box{MinX: 5, MinY: 5, MaxX: 6, MaxY: 6})
	c := mk(100, 200, geom.Box{MinX: -1, MinY: -1, MaxX: 0, MaxY: 0})

	left := NewResult()
	left.Merge(a)
	left.Merge(b)
	left.Merge(c)

	bc := NewResult()
	bc.Merge(b)
	bc.Merge(c)
	right := NewResult()
	right.Merge(a)
	right.Merge(bc)

	if left.Count != right.Count || left.SumArea != right.SumArea || left.MBR != right.MBR {
		t.Errorf("merge not associative: %+v vs %+v", left, right)
	}
	if len(left.Matches) != 3 || len(right.Matches) != 3 {
		t.Errorf("matches: %d vs %d", len(left.Matches), len(right.Matches))
	}
	// Identity.
	empty := NewResult()
	empty.Merge(nil)
	if empty.Count != 0 || !empty.MBR.IsEmpty() {
		t.Errorf("identity violated: %+v", empty)
	}
}

func TestPartitionSinkSides(t *testing.T) {
	g := partition.NewGrid(geom.Box{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, 10)
	sink := NewPartitionSink(g, partition.ArrayStore, func(f *geom.Feature) uint8 {
		if f.ID%2 == 0 {
			return SideA
		}
		return SideB
	})
	for i := int64(0); i < 10; i++ {
		f := sqf(i, float64(i)*5, float64(i)*5, 2)
		sink.Consume(&f)
	}
	if sink.Sets[0].Len() == 0 || sink.Sets[1].Len() == 0 {
		t.Fatalf("sides = %d / %d", sink.Sets[0].Len(), sink.Sets[1].Len())
	}
	// A feature may land on both sides (combined query filters).
	both := NewPartitionSink(g, partition.ArrayStore, func(*geom.Feature) uint8 { return SideA | SideB })
	f2 := sqf(3, 1, 1, 1)
	both.Consume(&f2)
	if both.Sets[0].Len() != 1 || both.Sets[1].Len() != 1 {
		t.Error("both-sides mask should insert into both sets")
	}
	// Mask 0 drops the feature.
	drop := NewPartitionSink(g, partition.ArrayStore, func(*geom.Feature) uint8 { return 0 })
	f3 := sqf(4, 1, 1, 1)
	drop.Consume(&f3)
	if drop.Sets[0].Len()+drop.Sets[1].Len() != 0 {
		t.Error("mask 0 should drop")
	}
}

func TestApplyMatchesEvaluator(t *testing.T) {
	ref := ScaleBox(geom.Box{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, 0.3).AsPolygon()
	spec := &Spec{Ref: ref, Pred: PredIntersects,
		WantArea: true, WantPerimeter: true, WantMBR: true,
		KeepMatches: true, Dist: geom.Haversine}
	spec.Normalize()
	ev := NewEvaluator(spec)
	viaApply := NewResult()
	for i := int64(0); i < 100; i++ {
		f := sqf(i, float64(i%10)*10, float64(i/10)*10, 4)
		ev.Consume(&f)
		viaApply.Absorb(spec, &f, Apply(spec, &f))
	}
	a, b := ev.Res, viaApply
	if a.Count != b.Count || a.SumArea != b.SumArea ||
		a.SumPerimeter != b.SumPerimeter || a.MBR != b.MBR ||
		len(a.Matches) != len(b.Matches) || a.Scanned != b.Scanned {
		t.Errorf("Apply path disagrees with Evaluator: %+v vs %+v", a, b)
	}
}

func TestScaleBoxAndSelectivity(t *testing.T) {
	extent := geom.Box{MinX: 0, MinY: 0, MaxX: 100, MaxY: 50}
	for _, frac := range []float64{0.0001, 0.01, 0.25, 1} {
		b := ScaleBox(extent, frac)
		got := SelectivityArea(b, extent)
		if math.Abs(got-frac) > 1e-9 {
			t.Errorf("frac %v: selectivity = %v", frac, got)
		}
	}
	if !ScaleBox(extent, 0).IsEmpty() {
		t.Error("zero fraction should be empty")
	}
	if ScaleBox(extent, 2) != extent {
		t.Error("fraction > 1 should clamp to extent")
	}
	if SelectivityArea(extent, geom.Box{}) != 0 {
		t.Error("degenerate extent selectivity should be 0")
	}
}

func TestSpecKindStrings(t *testing.T) {
	if Containment.String() != "containment" || Aggregation.String() != "aggregation" ||
		Join.String() != "join" || Combined.String() != "combined" {
		t.Error("Kind strings")
	}
}
