package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestConvexHullSquarePlusInterior(t *testing.T) {
	pts := []Point{{0, 0}, {4, 0}, {4, 4}, {0, 4}, {2, 2}, {1, 3}, {3, 1}}
	hull := HullOfPoints(pts)
	if len(hull) != 1 {
		t.Fatalf("hull rings = %d, want 1", len(hull))
	}
	ring := hull[0]
	if ring.SignedArea() <= 0 {
		t.Error("hull ring should be CCW")
	}
	// 4 corners + closing point.
	if len(ring) != 5 {
		t.Errorf("hull vertices = %d, want 5 (%v)", len(ring), ring)
	}
	if got := math.Abs(ring.SignedArea()); got != 16 {
		t.Errorf("hull area = %v, want 16", got)
	}
}

func TestConvexHullDegenerate(t *testing.T) {
	if h := HullOfPoints(nil); len(h) != 0 {
		t.Errorf("hull of nothing = %v", h)
	}
	one := HullOfPoints([]Point{{1, 1}})
	if len(one) != 1 || len(one[0]) != 2 {
		t.Errorf("hull of one point = %v", one)
	}
	two := HullOfPoints([]Point{{0, 0}, {1, 1}})
	if len(two) != 1 || len(two[0]) != 3 {
		t.Errorf("hull of two points = %v", two)
	}
	collinear := HullOfPoints([]Point{{0, 0}, {1, 1}, {2, 2}, {3, 3}})
	if len(collinear) != 1 {
		t.Fatalf("collinear hull = %v", collinear)
	}
	if got := collinear[0].Bound(); got != (Box{0, 0, 3, 3}) {
		t.Errorf("collinear hull bound = %+v", got)
	}
	dup := HullOfPoints([]Point{{1, 1}, {1, 1}, {1, 1}})
	if len(dup) != 1 || len(dup[0]) != 2 {
		t.Errorf("hull of duplicates = %v", dup)
	}
}

// Property: every input point lies inside or on the hull.
func TestConvexHullContainsAllPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(40) + 3
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{rng.Float64() * 100, rng.Float64() * 100}
		}
		hull := HullOfPoints(pts)
		if len(hull) == 0 {
			t.Fatal("empty hull for non-empty input")
		}
		for _, p := range pts {
			if LocatePointInRing(p, hull[0]) == Outside {
				t.Fatalf("point %v outside hull %v", p, hull[0])
			}
		}
	}
}

// Property: hull merging is associative in effect — merging partial hulls
// yields the hull of all points (the PFT merge invariant for
// ST_ConvexHull).
func TestMergeHullsEquivalentToWholeHull(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(60) + 6
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{rng.Float64() * 50, rng.Float64() * 50}
		}
		cut := rng.Intn(n-2) + 1
		h1 := HullOfPoints(pts[:cut])
		h2 := HullOfPoints(pts[cut:])
		merged := HullOfPoints(append(append([]Point{}, h1[0]...), h2[0]...))
		direct := HullOfPoints(pts)
		if !approxEq(math.Abs(merged[0].SignedArea()), math.Abs(direct[0].SignedArea()), 1e-9) {
			t.Fatalf("merged hull area %v != direct hull area %v",
				merged[0].SignedArea(), direct[0].SignedArea())
		}
	}
}

func TestConvexHullOfGeometry(t *testing.T) {
	ls := LineString{{0, 0}, {2, 3}, {4, 0}}
	h := HullOfPoints(ls)
	if len(h) != 1 {
		t.Fatalf("hull = %v", h)
	}
	if got := math.Abs(h[0].SignedArea()); got != 6 {
		t.Errorf("triangle hull area = %v, want 6", got)
	}
}

func TestClipRingToBox(t *testing.T) {
	b := Box{0, 0, 10, 10}
	tests := []struct {
		name     string
		ring     Ring
		wantArea float64
	}{
		{"fully inside", sq(2, 2, 3)[0], 9},
		{"fully outside", sq(20, 20, 3)[0], 0},
		{"half overlap", sq(5, 0, 10)[0], 50},
		{"covers box", sq(-5, -5, 30)[0], 100},
		{"corner overlap", sq(8, 8, 4)[0], 4},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := ClipRingToBox(tc.ring, b)
			var area float64
			if got != nil {
				area = math.Abs(got.SignedArea())
			}
			if !approxEq(area, tc.wantArea, 1e-9) && !(area == 0 && tc.wantArea == 0) {
				t.Errorf("clipped area = %v, want %v", area, tc.wantArea)
			}
			if got != nil {
				for _, p := range got {
					if !b.ContainsPoint(p) {
						t.Errorf("clipped vertex %v outside box", p)
					}
				}
			}
		})
	}
}

func TestClipPolygonToBoxWithHole(t *testing.T) {
	poly := Polygon{
		Ring{{0, 0}, {20, 0}, {20, 20}, {0, 20}, {0, 0}},
		Ring{{4, 4}, {8, 4}, {8, 8}, {4, 8}, {4, 4}},
	}
	b := Box{0, 0, 10, 10}
	got := ClipPolygonToBox(poly, b)
	if len(got) != 2 {
		t.Fatalf("clip rings = %d, want 2 (outer + hole)", len(got))
	}
	outerArea := math.Abs(got[0].SignedArea())
	holeArea := math.Abs(got[1].SignedArea())
	if !approxEq(outerArea, 100, 1e-9) || !approxEq(holeArea, 16, 1e-9) {
		t.Errorf("areas = %v / %v, want 100 / 16", outerArea, holeArea)
	}
}

func TestClipToBoxDispatch(t *testing.T) {
	b := Box{0, 0, 10, 10}
	if g := ClipToBox(PointGeom{Point{5, 5}}, b); g == nil {
		t.Error("inside point should survive")
	}
	if g := ClipToBox(PointGeom{Point{15, 5}}, b); g != nil {
		t.Error("outside point should be clipped away")
	}
	// Line crossing the box.
	ls := LineString{{-5, 5}, {15, 5}}
	got := ClipToBox(ls, b)
	seg, ok := got.(LineString)
	if !ok {
		t.Fatalf("clipped line = %T", got)
	}
	if !seg[0].Equal(Point{0, 5}) || !seg[len(seg)-1].Equal(Point{10, 5}) {
		t.Errorf("clipped line = %v", seg)
	}
	// Line that leaves and re-enters: two parts.
	zig := LineString{{-5, 5}, {5, 5}, {5, 15}, {8, 15}, {8, 5}, {15, 5}}
	got = ClipToBox(zig, b)
	if coll, ok := got.(Collection); !ok || len(coll) != 2 {
		t.Errorf("zig clip = %#v, want Collection of 2", got)
	}
	// MultiPolygon partially outside.
	mp := MultiPolygon{sq(2, 2, 2), sq(50, 50, 2)}
	got = ClipToBox(mp, b)
	if cm, ok := got.(MultiPolygon); !ok || len(cm) != 1 {
		t.Errorf("mp clip = %#v, want 1 polygon", got)
	}
	// Collection recursion.
	coll := Collection{PointGeom{Point{5, 5}}, PointGeom{Point{50, 5}}}
	got = ClipToBox(coll, b)
	if cc, ok := got.(Collection); !ok || len(cc) != 1 {
		t.Errorf("collection clip = %#v", got)
	}
}

// Property: clipped polygon area never exceeds either operand's area and
// the clipped polygon is contained in the box.
func TestClipAreaProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	b := Box{0, 0, 10, 10}
	for i := 0; i < 200; i++ {
		p := sq(rng.Float64()*20-5, rng.Float64()*20-5, rng.Float64()*8+0.5)
		clipped := ClipPolygonToBox(p, b)
		if clipped == nil {
			if p.Bound().Intersects(b) {
				// A polygon whose MBR touches the box may still clip to
				// nothing only if the overlap is zero-area (edge touch).
				if overlapArea(p.Bound(), b) > 1e-9 {
					t.Fatalf("non-trivial overlap but empty clip: %v", p)
				}
			}
			continue
		}
		ca := PlanarArea(clipped)
		if ca > PlanarArea(p)+1e-9 {
			t.Fatalf("clip area %v exceeds polygon area %v", ca, PlanarArea(p))
		}
		if ca > 100+1e-9 {
			t.Fatalf("clip area %v exceeds box area 100", ca)
		}
		clipped.EachPoint(func(pt Point) bool {
			if !b.ContainsPoint(pt) {
				t.Fatalf("clip vertex %v outside box", pt)
			}
			return true
		})
		// Exact expected area for axis-aligned squares.
		want := overlapArea(p.Bound(), b)
		if !approxEq(ca, want, 1e-9) {
			t.Fatalf("clip area %v, want %v", ca, want)
		}
	}
}
