package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSegmentsIntersect(t *testing.T) {
	tests := []struct {
		name       string
		a, b, c, d Point
		want       bool
		cross      bool // proper crossing
	}{
		{"X crossing", Point{0, 0}, Point{2, 2}, Point{0, 2}, Point{2, 0}, true, true},
		{"disjoint parallel", Point{0, 0}, Point{1, 0}, Point{0, 1}, Point{1, 1}, false, false},
		{"T touch", Point{0, 0}, Point{2, 0}, Point{1, 0}, Point{1, 1}, true, false},
		{"endpoint shared", Point{0, 0}, Point{1, 1}, Point{1, 1}, Point{2, 0}, true, false},
		{"collinear overlap", Point{0, 0}, Point{2, 0}, Point{1, 0}, Point{3, 0}, true, false},
		{"collinear disjoint", Point{0, 0}, Point{1, 0}, Point{2, 0}, Point{3, 0}, false, false},
		{"near miss", Point{0, 0}, Point{1, 1}, Point{1.01, 0}, Point{2, -1}, false, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := SegmentsIntersect(tc.a, tc.b, tc.c, tc.d); got != tc.want {
				t.Errorf("SegmentsIntersect = %v, want %v", got, tc.want)
			}
			if got := SegmentsIntersect(tc.c, tc.d, tc.a, tc.b); got != tc.want {
				t.Errorf("SegmentsIntersect (swapped) = %v, want %v", got, tc.want)
			}
			if got := SegmentsCross(tc.a, tc.b, tc.c, tc.d); got != tc.cross {
				t.Errorf("SegmentsCross = %v, want %v", got, tc.cross)
			}
		})
	}
}

func TestSegmentIntersectionPoint(t *testing.T) {
	p, ok := SegmentIntersection(Point{0, 0}, Point{2, 2}, Point{0, 2}, Point{2, 0})
	if !ok || !p.Equal(Point{1, 1}) {
		t.Fatalf("intersection = %v ok=%v, want (1 1) true", p, ok)
	}
	if _, ok := SegmentIntersection(Point{0, 0}, Point{1, 0}, Point{0, 1}, Point{1, 1}); ok {
		t.Error("parallel segments should not intersect")
	}
	if _, ok := SegmentIntersection(Point{0, 0}, Point{1, 1}, Point{3, 3}, Point{4, 4}); ok {
		t.Error("collinear disjoint segments: no unique point")
	}
}

func TestLocatePointInRing(t *testing.T) {
	ring := Ring{{0, 0}, {10, 0}, {10, 10}, {0, 10}, {0, 0}}
	tests := []struct {
		name string
		p    Point
		want PointLocation
	}{
		{"center", Point{5, 5}, Inside},
		{"outside right", Point{11, 5}, Outside},
		{"outside diag", Point{-1, -1}, Outside},
		{"on edge", Point{10, 5}, OnBoundary},
		{"on vertex", Point{0, 0}, OnBoundary},
		{"just inside", Point{0.0001, 0.0001}, Inside},
		{"just outside", Point{-0.0001, 5}, Outside},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := LocatePointInRing(tc.p, ring); got != tc.want {
				t.Errorf("LocatePointInRing = %v, want %v", got, tc.want)
			}
		})
	}
	// Open-form ring must agree.
	open := Ring{{0, 0}, {10, 0}, {10, 10}, {0, 10}}
	for _, tc := range tests {
		if got := LocatePointInRing(tc.p, open); got != tc.want {
			t.Errorf("open ring: LocatePointInRing(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestLocatePointInPolygonWithHole(t *testing.T) {
	poly := Polygon{
		Ring{{0, 0}, {10, 0}, {10, 10}, {0, 10}, {0, 0}},
		Ring{{3, 3}, {7, 3}, {7, 7}, {3, 7}, {3, 3}},
	}
	if got := LocatePointInPolygon(Point{5, 5}, poly); got != Outside {
		t.Errorf("point in hole = %v, want Outside", got)
	}
	if got := LocatePointInPolygon(Point{1, 1}, poly); got != Inside {
		t.Errorf("point in shell = %v, want Inside", got)
	}
	if got := LocatePointInPolygon(Point{3, 5}, poly); got != OnBoundary {
		t.Errorf("point on hole edge = %v, want OnBoundary", got)
	}
}

func TestIntersectsPolygons(t *testing.T) {
	a := sq(0, 0, 10)
	tests := []struct {
		name string
		b    Geometry
		want bool
	}{
		{"overlapping", sq(5, 5, 10), true},
		{"contained", sq(2, 2, 2), true},
		{"containing", sq(-5, -5, 30), true},
		{"disjoint", sq(20, 20, 5), false},
		{"edge touch", sq(10, 0, 5), true},
		{"corner touch", sq(10, 10, 5), true},
		{"line crossing", LineString{{-1, 5}, {11, 5}}, true},
		{"line inside", LineString{{1, 1}, {2, 2}}, true},
		{"line outside", LineString{{20, 20}, {30, 30}}, false},
		{"point inside", PointGeom{Point{5, 5}}, true},
		{"point outside", PointGeom{Point{50, 5}}, false},
		{"point on boundary", PointGeom{Point{10, 5}}, true},
		// Multi-part geometries whose first part lies far outside and whose
		// second lies strictly inside: every part gets its own probe.
		{"multipolygon, far part first", MultiPolygon{sq(50, 50, 5), sq(2, 2, 2)}, true},
		{"collection, far part first", Collection{PointGeom{Point{50, 50}}, LineString{{1, 1}, {2, 2}}}, true},
		{"multipolygon, all parts far", MultiPolygon{sq(50, 50, 5), sq(20, 20, 2)}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := Intersects(a, tc.b); got != tc.want {
				t.Errorf("Intersects = %v, want %v", got, tc.want)
			}
			if got := Intersects(tc.b, a); got != tc.want {
				t.Errorf("Intersects (sym) = %v, want %v", got, tc.want)
			}
			if got := Disjoint(a, tc.b); got == tc.want {
				t.Errorf("Disjoint = %v, want %v", got, !tc.want)
			}
		})
	}
}

func TestWithinContains(t *testing.T) {
	big := sq(0, 0, 10)
	small := sq(2, 2, 2)
	if !Within(small, big) {
		t.Error("small should be within big")
	}
	if Within(big, small) {
		t.Error("big should not be within small")
	}
	if !Contains(big, small) {
		t.Error("big should contain small")
	}
	if Contains(small, big) {
		t.Error("small should not contain big")
	}
	// Identical polygons are within each other (closed semantics).
	if !Within(big, sq(0, 0, 10)) {
		t.Error("polygon should be within an identical polygon")
	}
	// Overlapping but not contained.
	if Within(sq(5, 5, 10), big) {
		t.Error("overlapping polygon is not within")
	}
	// Point containment.
	if !Within(PointGeom{Point{5, 5}}, big) {
		t.Error("interior point should be within")
	}
	if Within(PointGeom{Point{15, 5}}, big) {
		t.Error("exterior point should not be within")
	}
	// Multipolygon container.
	mp := MultiPolygon{sq(0, 0, 4), sq(6, 6, 4)}
	if !Within(sq(1, 1, 2), mp) {
		t.Error("square should be within first member")
	}
	if !Within(sq(7, 7, 2), mp) {
		t.Error("square should be within second member")
	}
	if Within(sq(4, 4, 2), mp) {
		t.Error("square straddling the gap is not within")
	}
}

func TestTouches(t *testing.T) {
	a := sq(0, 0, 10)
	tests := []struct {
		name string
		b    Geometry
		want bool
	}{
		{"edge touch", sq(10, 0, 5), true},
		{"corner touch", sq(10, 10, 5), true},
		{"overlap", sq(5, 5, 10), false},
		{"disjoint", sq(20, 0, 5), false},
		{"contained", sq(2, 2, 2), false},
		{"line endpoint on boundary", LineString{{10, 5}, {20, 5}}, true},
		{"line crossing boundary", LineString{{5, 5}, {20, 5}}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := Touches(a, tc.b); got != tc.want {
				t.Errorf("Touches = %v, want %v", got, tc.want)
			}
			if got := Touches(tc.b, a); got != tc.want {
				t.Errorf("Touches (sym) = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestCrosses(t *testing.T) {
	poly := sq(0, 0, 10)
	if !Crosses(LineString{{-5, 5}, {15, 5}}, poly) {
		t.Error("line through polygon should cross")
	}
	if Crosses(LineString{{1, 1}, {9, 9}}, poly) {
		t.Error("line inside polygon should not cross")
	}
	if Crosses(LineString{{20, 20}, {30, 30}}, poly) {
		t.Error("disjoint line should not cross")
	}
	// Line/line proper crossing.
	if !Crosses(LineString{{0, 0}, {2, 2}}, LineString{{0, 2}, {2, 0}}) {
		t.Error("X lines should cross")
	}
	if Crosses(LineString{{0, 0}, {1, 1}}, LineString{{1, 1}, {2, 0}}) {
		t.Error("lines sharing an endpoint do not cross")
	}
	// Polygon/polygon: crosses undefined (false).
	if Crosses(sq(0, 0, 5), sq(2, 2, 5)) {
		t.Error("polygon/polygon crosses should be false")
	}
}

func TestOverlaps(t *testing.T) {
	if !Overlaps(sq(0, 0, 10), sq(5, 5, 10)) {
		t.Error("overlapping squares should overlap")
	}
	if Overlaps(sq(0, 0, 10), sq(2, 2, 2)) {
		t.Error("containment is not overlap")
	}
	if Overlaps(sq(0, 0, 10), sq(20, 20, 5)) {
		t.Error("disjoint squares do not overlap")
	}
	if Overlaps(sq(0, 0, 10), sq(10, 0, 10)) {
		t.Error("edge-touching squares do not overlap")
	}
	if Overlaps(sq(0, 0, 10), LineString{{-1, 5}, {11, 5}}) {
		t.Error("different dimensions never overlap")
	}
}

func TestRelate(t *testing.T) {
	tests := []struct {
		name string
		a, b Geometry
		want string
	}{
		{"disjoint", sq(0, 0, 1), sq(5, 5, 1), "FTTF"},
		{"overlap", sq(0, 0, 10), sq(5, 5, 10), "TTTT"},
		{"within", sq(2, 2, 2), sq(0, 0, 10), "TFTT"},
		{"contains", sq(0, 0, 10), sq(2, 2, 2), "TTFT"},
		{"equal", sq(0, 0, 10), sq(0, 0, 10), "TFFT"},
		{"touch", sq(0, 0, 10), sq(10, 0, 10), "FTTT"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := Relate(tc.a, tc.b); got != tc.want {
				t.Errorf("Relate = %q, want %q", got, tc.want)
			}
		})
	}
}

func TestIsEmptyAndIsSimple(t *testing.T) {
	if !IsEmpty(nil) || !IsEmpty(Polygon{}) || !IsEmpty(LineString{}) {
		t.Error("empty geometries should be empty")
	}
	if IsEmpty(sq(0, 0, 1)) {
		t.Error("square is not empty")
	}
	if !IsSimple(sq(0, 0, 1)) {
		t.Error("square should be simple")
	}
	bowtie := Polygon{Ring{{0, 0}, {2, 2}, {2, 0}, {0, 2}, {0, 0}}}
	if IsSimple(bowtie) {
		t.Error("bowtie should not be simple")
	}
	if !IsSimple(LineString{{0, 0}, {1, 0}, {1, 1}}) {
		t.Error("L-shaped line should be simple")
	}
	if IsSimple(LineString{{0, 0}, {2, 2}, {2, 0}, {0, 2}}) {
		t.Error("self-crossing line should not be simple")
	}
}

func TestBoundaryOperator(t *testing.T) {
	poly := Polygon{
		Ring{{0, 0}, {10, 0}, {10, 10}, {0, 10}, {0, 0}},
		Ring{{3, 3}, {7, 3}, {7, 7}, {3, 7}, {3, 3}},
	}
	b := Boundary(poly)
	coll, ok := b.(Collection)
	if !ok || len(coll) != 2 {
		t.Fatalf("polygon boundary = %T with %d members, want Collection of 2", b, len(coll))
	}
	ls := LineString{{0, 0}, {5, 5}}
	lb := Boundary(ls).(Collection)
	if len(lb) != 2 {
		t.Fatalf("line boundary members = %d, want 2", len(lb))
	}
	if p := lb[0].(PointGeom); !p.P.Equal(Point{0, 0}) {
		t.Errorf("line boundary start = %v", p.P)
	}
}

func TestEnvelope(t *testing.T) {
	g := LineString{{1, 2}, {-3, 4}, {5, -6}}
	want := Box{-3, -6, 5, 4}
	if got := Envelope(g); got != want {
		t.Errorf("Envelope = %+v, want %+v", got, want)
	}
}

// Property: for random convex-ish polygons (squares) and points, the
// crossing-number test agrees with the box test for axis-aligned squares.
func TestPointInSquareMatchesBox(t *testing.T) {
	f := func(px, py, sx, sy float64, size uint8) bool {
		s := float64(size%50) + 1
		poly := sq(sx, sy, s)
		box := Box{sx, sy, sx + s, sy + s}
		p := Point{px, py}
		inPoly := LocatePointInPolygon(p, poly) != Outside
		return inPoly == box.ContainsPoint(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Intersects is symmetric for random pairs of squares.
func TestIntersectsSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		a := sq(rng.Float64()*20-10, rng.Float64()*20-10, rng.Float64()*5+0.1)
		b := sq(rng.Float64()*20-10, rng.Float64()*20-10, rng.Float64()*5+0.1)
		if Intersects(a, b) != Intersects(b, a) {
			t.Fatalf("asymmetric Intersects for %v vs %v", a, b)
		}
		// Within implies Intersects.
		if Within(a, b) && !Intersects(a, b) {
			t.Fatalf("Within without Intersects for %v vs %v", a, b)
		}
		// Box intersection is implied by geometry intersection.
		if Intersects(a, b) && !a.Bound().Intersects(b.Bound()) {
			t.Fatalf("geometry intersects but bounds do not: %v vs %v", a, b)
		}
	}
}

// Property: square-vs-square Intersects agrees with box Intersects.
func TestSquareIntersectsMatchesBox(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		ax, ay := rng.Float64()*10, rng.Float64()*10
		bx, by := rng.Float64()*10, rng.Float64()*10
		as, bs := rng.Float64()*4+0.1, rng.Float64()*4+0.1
		a, b := sq(ax, ay, as), sq(bx, by, bs)
		want := a.Bound().Intersects(b.Bound())
		if got := Intersects(a, b); got != want {
			t.Fatalf("square intersects = %v, box = %v (a=%v b=%v)", got, want, a, b)
		}
	}
}

func TestInteriorProbe(t *testing.T) {
	poly := sq(0, 0, 10)
	p, ok := interiorProbe(poly)
	if !ok {
		t.Fatal("no interior point found for square")
	}
	if LocatePointInPolygon(p, poly) != Inside {
		t.Errorf("probe %v not strictly inside", p)
	}
	// Polygon with a hole covering the midline.
	holed := Polygon{
		Ring{{0, 0}, {10, 0}, {10, 10}, {0, 10}, {0, 0}},
		Ring{{1, 4}, {9, 4}, {9, 6}, {1, 6}, {1, 4}},
	}
	p, ok = interiorProbe(holed)
	if !ok {
		t.Fatal("no interior point found for holed polygon")
	}
	if LocatePointInPolygon(p, holed) != Inside {
		t.Errorf("probe %v not inside holed polygon", p)
	}
}

func TestEffectiveRing(t *testing.T) {
	a, b, c, d := Point{0, 0}, Point{10, 0}, Point{10, 10}, Point{0, 10}
	tests := []struct {
		name string
		ring Ring
		want int // effective vertex count; 0 = not ok
	}{
		{"open", Ring{a, b, c, d}, 4},
		{"closed", Ring{a, b, c, d, a}, 4},
		{"double-closed", Ring{a, b, c, d, a, a}, 4},
		{"triple-closed", Ring{a, b, c, d, a, a, a}, 4},
		{"first-vertex-mid-ring", Ring{a, b, a, c, d, a}, 5},
		{"too-small", Ring{a, b}, 0},
		{"closed-triangle-degenerate", Ring{a, b, a}, 0},
		// Maximally degenerate rings keep their historical 3-vertex cycle
		// rather than collapsing below the minimum.
		{"degenerate-kept", Ring{a, b, a, a}, 3},
		{"all-same-closed", Ring{a, a, a, a}, 3},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			eff, ok := EffectiveRing(tc.ring)
			if tc.want == 0 {
				if ok {
					t.Fatalf("EffectiveRing = %v, want not ok", eff)
				}
				return
			}
			if !ok || len(eff) != tc.want {
				t.Fatalf("EffectiveRing = %v ok=%v, want %d vertices", eff, ok, tc.want)
			}
		})
	}
}

func TestLocatePointInRingDuplicateVertices(t *testing.T) {
	// Rings that close redundantly or repeat the first vertex mid-ring
	// must classify exactly like the clean form (satellite regression:
	// only the single final closing vertex used to be skipped).
	clean := Ring{{0, 0}, {10, 0}, {10, 10}, {0, 10}}
	variants := map[string]Ring{
		"closed":                {{0, 0}, {10, 0}, {10, 10}, {0, 10}, {0, 0}},
		"double-closed":         {{0, 0}, {10, 0}, {10, 10}, {0, 10}, {0, 0}, {0, 0}},
		"triple-closed":         {{0, 0}, {10, 0}, {10, 10}, {0, 10}, {0, 0}, {0, 0}, {0, 0}},
		"consecutive-duplicate": {{0, 0}, {10, 0}, {10, 0}, {10, 10}, {0, 10}},
	}
	pts := []Point{
		{5, 5}, {-1, 5}, {11, 5}, {0, 0}, {10, 10}, {5, 0}, {0, 5},
		{0.0001, 0.0001}, {-0.0001, 0}, {5, 10}, {5, 10.0001},
	}
	for name, ring := range variants {
		for _, p := range pts {
			want := LocatePointInRing(p, clean)
			if got := LocatePointInRing(p, ring); got != want {
				t.Errorf("%s: LocatePointInRing(%v) = %v, want %v", name, p, got, want)
			}
		}
	}
	// First vertex repeated strictly mid-ring: a pinched shape; the mid
	// repeat is a genuine vertex, boundary passes through it.
	pinched := Ring{{0, 0}, {10, 0}, {0, 0}, {10, 10}, {0, 10}, {0, 0}}
	if got := LocatePointInRing(Point{5, 0}, pinched); got != OnBoundary {
		t.Errorf("pinched: edge point = %v, want OnBoundary", got)
	}
	if got := LocatePointInRing(Point{0, 0}, pinched); got != OnBoundary {
		t.Errorf("pinched: repeated vertex = %v, want OnBoundary", got)
	}
	// Degenerate [A,B,A,A]: p on segment AB stays OnBoundary (the cycle
	// must not collapse below three vertices).
	if got := LocatePointInRing(Point{5, 0}, Ring{{0, 0}, {10, 0}, {0, 0}, {0, 0}}); got != OnBoundary {
		t.Errorf("[A,B,A,A]: point on AB = %v, want OnBoundary", got)
	}
}

func TestPointOnSegment(t *testing.T) {
	a, b := Point{0, 0}, Point{10, 0}
	if !PointOnSegment(a, b, Point{5, 0}) || !PointOnSegment(a, b, a) || !PointOnSegment(a, b, b) {
		t.Error("points on segment not detected")
	}
	if PointOnSegment(a, b, Point{11, 0}) || PointOnSegment(a, b, Point{5, 1}) {
		t.Error("points off segment detected")
	}
}

// TestContainsRepresentativeAllocatesNothing: the representative vertex
// of each of the package's kinds is read without a closure, so the probe
// the intersects tail runs per matched feature allocates nothing.
func TestContainsRepresentativeAllocatesNothing(t *testing.T) {
	var box Geometry = Box{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}.AsPolygon()
	inner := Box{MinX: 2, MinY: 2, MaxX: 3, MaxY: 3}.AsPolygon()
	for _, g := range []Geometry{
		inner,
		MultiPolygon{Box{MinX: 50, MinY: 50, MaxX: 51, MaxY: 51}.AsPolygon(), inner},
		LineString{{X: 1, Y: 1}, {X: 2, Y: 2}},
		PointGeom{P: Point{X: 5, Y: 5}},
		Collection{PointGeom{P: Point{X: 50, Y: 50}}, inner},
	} {
		if !ContainsRepresentative(box, g) {
			t.Fatalf("%v: no representative vertex inside the box", g)
		}
		if n := testing.AllocsPerRun(100, func() { ContainsRepresentative(box, g) }); n != 0 {
			t.Errorf("%v: ContainsRepresentative allocates %v times per call, want 0", g, n)
		}
	}
}
