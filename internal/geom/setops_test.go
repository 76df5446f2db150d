package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestPolyUnionBasic(t *testing.T) {
	a := sq(0, 0, 10)
	b := sq(5, 5, 10)
	got := PolyUnion(a, b)
	// Union area = 100 + 100 - 25 = 175.
	if area := PlanarArea(got); !approxEq(area, 175, 1e-9) {
		t.Errorf("union area = %v, want 175", area)
	}
	// Disjoint: two pieces.
	got = PolyUnion(a, sq(20, 20, 5))
	if len(got) != 2 {
		t.Errorf("disjoint union pieces = %d, want 2", len(got))
	}
	// Contained: the big one.
	got = PolyUnion(a, sq(2, 2, 2))
	if area := PlanarArea(got); !approxEq(area, 100, 1e-9) {
		t.Errorf("contained union area = %v, want 100", area)
	}
}

// Property: inclusion–exclusion holds for random overlapping squares,
// |A∪B| = |A| + |B| − |A∩B|, where the intersection of two axis-aligned
// squares is the intersection of their boxes.
func TestSetOpsInclusionExclusion(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 150; i++ {
		a := sq(rng.Float64()*8, rng.Float64()*8, rng.Float64()*6+1)
		b := sq(rng.Float64()*8, rng.Float64()*8, rng.Float64()*6+1)
		unionArea := PlanarArea(PolyUnion(a, b))
		aArea, bArea := PlanarArea(a), PlanarArea(b)
		interArea := overlapArea(a.Bound(), b.Bound())
		if !approxEq(unionArea, aArea+bArea-interArea, 1e-6) {
			t.Fatalf("case %d: union %v != %v+%v-%v (a=%v b=%v)", i, unionArea, aArea, bArea, interArea, a, b)
		}
	}
}

func TestDegenerateSharedEdgeRetries(t *testing.T) {
	// Shared edge triggers the perturbation path; result must still be
	// approximately correct.
	a := sq(0, 0, 10)
	b := sq(10, 0, 10) // shares the x=10 edge
	union := PolyUnion(a, b)
	if !approxEq(PlanarArea(union), 200, 1e-3) {
		t.Errorf("edge-sharing union area = %v, want ~200", PlanarArea(union))
	}
}

func TestUnionAllDissolves(t *testing.T) {
	// Three overlapping squares in a chain dissolve into one piece.
	polys := []Polygon{sq(0, 0, 4), sq(2, 0, 4), sq(4, 0, 4)}
	got := UnionAll(polys)
	if len(got) != 1 {
		t.Fatalf("union pieces = %d, want 1", len(got))
	}
	if area := PlanarArea(got); !approxEq(area, 32, 1e-6) {
		t.Errorf("chain union area = %v, want 32", area)
	}
	// Two disjoint clusters stay separate.
	polys = []Polygon{sq(0, 0, 2), sq(1, 1, 2), sq(50, 50, 2)}
	got = UnionAll(polys)
	if len(got) != 2 {
		t.Errorf("cluster union pieces = %d, want 2", len(got))
	}
}

func TestBufferPoint(t *testing.T) {
	g := Buffer(PointGeom{Point{0, 0}}, 1, 8)
	poly, ok := g.(Polygon)
	if !ok {
		t.Fatalf("buffer of point = %T", g)
	}
	// Area of 32-gon of radius 1 ≈ π.
	if area := PlanarArea(poly); !approxEq(area, math.Pi, 0.02) {
		t.Errorf("disc area = %v, want ~π", area)
	}
}

func TestBufferSquareGrows(t *testing.T) {
	s := sq(0, 0, 10)
	g := Buffer(s, 1, 4)
	poly, ok := g.(Polygon)
	if !ok {
		t.Fatalf("buffer = %T", g)
	}
	area := PlanarArea(poly)
	// Expected: 100 + perimeter*1 + π*1² ≈ 100 + 40 + 3.14.
	want := 100 + 40 + math.Pi
	if !approxEq(area, want, 0.02) {
		t.Errorf("buffered area = %v, want ~%v", area, want)
	}
	// Original square must be inside the buffer.
	s.EachPoint(func(p Point) bool {
		if LocatePointInPolygon(p, poly) == Outside {
			t.Errorf("original vertex %v outside buffer", p)
		}
		return true
	})
	// Zero distance: unchanged.
	if got := Buffer(s, 0, 4); got.(Polygon).NumPoints() != s.NumPoints() {
		t.Error("zero-distance buffer should be identity")
	}
}

func TestBufferMultiAndLine(t *testing.T) {
	mp := MultiPolygon{sq(0, 0, 2), sq(10, 10, 2)}
	g := Buffer(mp, 0.5, 2)
	bm, ok := g.(MultiPolygon)
	if !ok || len(bm) != 2 {
		t.Fatalf("buffer of multipolygon = %#v", g)
	}
	if PlanarArea(bm) <= PlanarArea(mp) {
		t.Error("buffer should grow area")
	}
	lg := Buffer(LineString{{0, 0}, {4, 0}, {4, 4}}, 0.5, 2)
	if lg == nil {
		t.Fatal("line buffer returned nil")
	}
	if PlanarArea(lg.(Polygon)) <= 0 {
		t.Error("line buffer should have positive area")
	}
}
