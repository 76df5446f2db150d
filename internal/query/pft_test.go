package query

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"atgis/internal/geom"
)

// The aggregation and periodically flushing transducers of Table 1 as the
// engine runs them: each feature is evaluated whole (ApplyBox), the values
// fold into one Result per block, and the blocks' Results merge in input
// order. These tests hold that fold to what the paper's PFTs promise: any
// split of the feature stream gives the sequential answer, and every
// per-feature value is geom's.

// splitFold evaluates feats under spec in random blocks of one to five
// features, one Result per block, merged in input order.
func splitFold(spec *Spec, feats []geom.Feature, seed int64) *Result {
	rng := rand.New(rand.NewSource(seed))
	out := NewResult()
	for pos := 0; pos < len(feats); {
		n := min(rng.Intn(5)+1, len(feats)-pos)
		block := NewResult()
		for i := pos; i < pos+n; i++ {
			block.Absorb(spec, &feats[i], ApplyBox(spec, &feats[i], feats[i].Geom.Bound()))
		}
		out.Merge(block)
		pos += n
	}
	return out
}

func randomSquares(rng *rand.Rand, n int) []geom.Feature {
	feats := make([]geom.Feature, n)
	for i := range feats {
		feats[i] = sqf(int64(i), rng.Float64()*20-10, rng.Float64()*20-10, rng.Float64()*6+0.5)
	}
	return feats
}

func TestEnvelopePFTSplitInvariance(t *testing.T) {
	feats := randomSquares(rand.New(rand.NewSource(1)), 10)
	spec := &Spec{WantMBR: true, KeepMatches: true}
	spec.Normalize()
	got := splitFold(spec, feats, 11)
	want := geom.EmptyBox()
	for i, f := range feats {
		want = want.Union(f.Geom.Bound())
		if got.Matches[i].Box != f.Geom.Bound() {
			t.Fatalf("shape %d: envelope %+v, want %+v", i, got.Matches[i].Box, f.Geom.Bound())
		}
	}
	if got.MBR != want {
		t.Fatalf("MBR %+v, want %+v", got.MBR, want)
	}
}

func TestRelationPFTsMatchGeomPredicates(t *testing.T) {
	ref := geom.Box{MinX: -3, MinY: -3, MaxX: 3, MaxY: 3}.AsPolygon()
	feats := randomSquares(rand.New(rand.NewSource(2)), 60)
	geomPred := map[Predicate]func(g geom.Geometry) bool{
		PredIntersects: func(g geom.Geometry) bool { return geom.Intersects(g, ref) },
		PredWithin:     func(g geom.Geometry) bool { return geom.Within(g, ref) },
		PredDisjoint:   func(g geom.Geometry) bool { return !geom.Intersects(g, ref) },
	}
	for p, want := range geomPred {
		spec := &Spec{Ref: ref, Pred: p, KeepMatches: true}
		spec.Normalize()
		var ids []int64
		for i := range feats {
			w := want(feats[i].Geom)
			if got := Apply(spec, &feats[i]).Matched; got != w {
				t.Errorf("%v: shape %d matched %v, want %v (%v)", p, i, got, w, feats[i].Geom.Bound())
			}
			if w {
				ids = append(ids, feats[i].ID)
			}
		}
		got := splitFold(spec, feats, int64(p)+11)
		if len(got.Matches) != len(ids) || got.Count != int64(len(ids)) {
			t.Fatalf("%v: split fold matched %d, want %d", p, len(got.Matches), len(ids))
		}
		for i, m := range got.Matches {
			if m.ID != ids[i] {
				t.Fatalf("%v: match %d is shape %d, want %d", p, i, m.ID, ids[i])
			}
		}
	}
}

func TestIntersectsPFTReferenceInsideShape(t *testing.T) {
	// The shape fully contains the reference: no edges meet, so only the
	// point-in-polygon probe can detect it — on the kernel path Apply
	// takes and in the scalar predicate.
	ref := geom.Box{MinX: -1, MinY: -1, MaxX: 1, MaxY: 1}.AsPolygon()
	shape := sqf(1, -10, -10, 20)
	spec := &Spec{Ref: ref, Pred: PredIntersects}
	spec.Normalize()
	if !Apply(spec, &shape).Matched {
		t.Fatal("kernel path: containing shape should intersect")
	}
	if !PredIntersects.Eval(shape.Geom, ref) {
		t.Fatal("scalar predicate: containing shape should intersect")
	}
}

func TestPerimeterAndAreaPFTMatchGeom(t *testing.T) {
	feats := randomSquares(rand.New(rand.NewSource(4)), 20)
	spec := &Spec{WantArea: true, WantPerimeter: true, Dist: geom.Haversine}
	spec.Normalize()
	var wantA, wantP float64
	for i := range feats {
		a, p := geom.SphericalArea(feats[i].Geom), geom.Perimeter(feats[i].Geom, geom.Haversine)
		if v := Apply(spec, &feats[i]); v.Area != a || v.Perimeter != p {
			t.Errorf("shape %d: area %v perimeter %v, want %v %v", i, v.Area, v.Perimeter, a, p)
		}
		wantA += a
		wantP += p
	}
	got := splitFold(spec, feats, 21)
	if math.Abs(got.SumArea-wantA) > 1e-9*wantA || math.Abs(got.SumPerimeter-wantP) > 1e-9*wantP {
		t.Fatalf("split sums %v %v, want %v %v", got.SumArea, got.SumPerimeter, wantA, wantP)
	}
}

func TestConvexHullPFTSplitInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	feats := make([]geom.Feature, 300)
	pts := make([]geom.Point, len(feats))
	for i := range feats {
		pts[i] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		feats[i] = geom.Feature{ID: int64(i), Geom: geom.PointGeom{P: pts[i]}}
	}
	spec := &Spec{WantHull: true}
	spec.Normalize()
	got := splitFold(spec, feats, 5).Hull()
	if want := geom.HullOfPoints(pts); !reflect.DeepEqual(got, want) {
		t.Fatalf("hull %v, want %v", got, want)
	}
}

func TestIsEmptyPFT(t *testing.T) {
	// A feature without a geometry is scanned but never matches; one with
	// a geometry and no reference matches.
	spec := &Spec{WantArea: true}
	r := NewResult()
	empty := geom.Feature{ID: 1}
	point := geom.Feature{ID: 2, Geom: geom.PointGeom{P: geom.Point{X: 1, Y: 2}}}
	for _, f := range []*geom.Feature{&empty, &point} {
		r.Absorb(spec, f, Apply(spec, f))
	}
	if r.Scanned != 2 || r.Count != 1 || r.SumArea != 0 {
		t.Fatalf("scanned %d, matched %d, area %v; want 2, 1, 0", r.Scanned, r.Count, r.SumArea)
	}
}

// TestRelStateMergeAssociative: the relation state a block carries to the
// merge is its Result — counts, box, hull points and matches — and the
// merge must be associative with NewResult as its identity. Sums are
// whole numbers, so float rounding cannot hide a regrouping.
func TestRelStateMergeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	mk := func() *Result {
		r := NewResult()
		r.Count = int64(rng.Intn(4))
		r.Scanned = r.Count + int64(rng.Intn(4))
		r.SumArea, r.SumPerimeter = float64(rng.Intn(100)), float64(rng.Intn(100))
		for i := int64(0); i < r.Count; i++ {
			p := geom.Point{X: rng.Float64(), Y: rng.Float64()}
			r.MBR = r.MBR.ExtendPoint(p)
			r.HullPts = append(r.HullPts, p)
			r.Matches = append(r.Matches, Match{ID: rng.Int63(), Box: geom.BoxOf(p)})
		}
		return r
	}
	merge := func(a, b *Result) *Result {
		out := NewResult()
		out.Merge(a)
		out.Merge(b)
		return out
	}
	for i := 0; i < 200; i++ {
		a, b, c := mk(), mk(), mk()
		if l, r := merge(merge(a, b), c), merge(a, merge(b, c)); !reflect.DeepEqual(l, r) {
			t.Fatalf("merge not associative:\n%+v\n%+v", l, r)
		}
		if got := merge(NewResult(), a); !reflect.DeepEqual(got, merge(a, nil)) {
			t.Fatalf("NewResult is not an identity: %+v vs %+v", got, a)
		}
	}
}
