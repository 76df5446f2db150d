package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func sq(x, y, size float64) Polygon {
	return Polygon{Ring{
		{x, y}, {x + size, y}, {x + size, y + size}, {x, y + size}, {x, y},
	}}
}

// overlapArea is the planar area of the overlap of two boxes.
func overlapArea(a, b Box) float64 {
	w := math.Min(a.MaxX, b.MaxX) - math.Max(a.MinX, b.MinX)
	h := math.Min(a.MaxY, b.MaxY) - math.Max(a.MinY, b.MinY)
	if w < 0 || h < 0 {
		return 0
	}
	return w * h
}

func TestBoxEmpty(t *testing.T) {
	e := EmptyBox()
	if !e.IsEmpty() {
		t.Fatal("EmptyBox should be empty")
	}
	if e.Intersects(Box{0, 0, 1, 1}) {
		t.Error("empty box must not intersect anything")
	}
	if e.ContainsBox(Box{0, 0, 1, 1}) || (Box{0, 0, 1, 1}).ContainsBox(e) {
		t.Error("containment with empty box must be false")
	}
}

func TestBoxExtendAndUnion(t *testing.T) {
	b := EmptyBox().ExtendPoint(Point{1, 2}).ExtendPoint(Point{-1, 5})
	want := Box{-1, 2, 1, 5}
	if b != want {
		t.Fatalf("extend = %+v, want %+v", b, want)
	}
	u := b.Union(Box{0, 0, 3, 1})
	want = Box{-1, 0, 3, 5}
	if u != want {
		t.Fatalf("union = %+v, want %+v", u, want)
	}
	if got := b.Union(EmptyBox()); got != b {
		t.Fatalf("union with empty = %+v, want %+v", got, b)
	}
	if got := EmptyBox().Union(b); got != b {
		t.Fatalf("empty union b = %+v, want %+v", got, b)
	}
}

func TestBoxUnionProperties(t *testing.T) {
	boxOf := func(a, b, c, d float64) Box {
		return Box{math.Min(a, c), math.Min(b, d), math.Max(a, c), math.Max(b, d)}
	}
	assoc := func(x1, y1, x2, y2, x3, y3, x4, y4, x5, y5, x6, y6 float64) bool {
		a := boxOf(x1, y1, x2, y2)
		b := boxOf(x3, y3, x4, y4)
		c := boxOf(x5, y5, x6, y6)
		return a.Union(b).Union(c) == a.Union(b.Union(c))
	}
	if err := quick.Check(assoc, nil); err != nil {
		t.Errorf("box union not associative: %v", err)
	}
	comm := func(x1, y1, x2, y2, x3, y3, x4, y4 float64) bool {
		a := boxOf(x1, y1, x2, y2)
		b := boxOf(x3, y3, x4, y4)
		return a.Union(b) == b.Union(a)
	}
	if err := quick.Check(comm, nil); err != nil {
		t.Errorf("box union not commutative: %v", err)
	}
}

func TestBoxIntersect(t *testing.T) {
	a := Box{0, 0, 10, 10}
	tests := []struct {
		name string
		b    Box
		want bool
	}{
		{"overlap", Box{5, 5, 15, 15}, true},
		{"contained", Box{2, 2, 3, 3}, true},
		{"touch edge", Box{10, 0, 20, 10}, true},
		{"touch corner", Box{10, 10, 20, 20}, true},
		{"disjoint x", Box{11, 0, 20, 10}, false},
		{"disjoint y", Box{0, 11, 10, 20}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := a.Intersects(tc.b); got != tc.want {
				t.Errorf("Intersects = %v, want %v", got, tc.want)
			}
			if got := tc.b.Intersects(a); got != tc.want {
				t.Errorf("Intersects (sym) = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestRingSignedAreaAndOrientation(t *testing.T) {
	ccw := Ring{{0, 0}, {4, 0}, {4, 3}, {0, 3}, {0, 0}}
	if got := ccw.SignedArea(); got != 12 {
		t.Errorf("CCW area = %v, want 12", got)
	}
	if ccw.SignedArea() <= 0 {
		t.Error("expected CCW")
	}
	cw := ccw.Reverse()
	if got := cw.SignedArea(); got != -12 {
		t.Errorf("CW area = %v, want -12", got)
	}
	// Open (unclosed) ring gives the same area.
	open := Ring{{0, 0}, {4, 0}, {4, 3}, {0, 3}}
	if got := open.SignedArea(); got != 12 {
		t.Errorf("open ring area = %v, want 12", got)
	}
}

func TestRingCanonical(t *testing.T) {
	open := Ring{{0, 0}, {1, 0}, {1, 1}}
	c := open.Canonical()
	if len(c) != 4 || !c[0].Equal(c[3]) {
		t.Fatalf("Canonical() = %v, want closed ring", c)
	}
	// Already closed: unchanged.
	c2 := c.Canonical()
	if len(c2) != len(c) {
		t.Fatalf("Canonical on closed ring changed length: %d -> %d", len(c), len(c2))
	}
}

func TestGeometryInterfaces(t *testing.T) {
	poly := sq(0, 0, 2)
	ls := LineString{{0, 0}, {1, 1}, {2, 0}}
	pt := PointGeom{Point{3, 4}}
	mp := MultiPolygon{sq(0, 0, 1), sq(5, 5, 1)}
	coll := Collection{poly, ls, pt}

	cases := []struct {
		name      string
		g         Geometry
		typ       GeomType
		numPoints int
		numEdges  int
	}{
		{"polygon", poly, TypePolygon, 5, 4},
		{"linestring", ls, TypeLineString, 3, 2},
		{"point", pt, TypePoint, 1, 0},
		{"multipolygon", mp, TypeMultiPolygon, 10, 8},
		{"collection", coll, TypeCollection, 9, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.g.Type(); got != tc.typ {
				t.Errorf("Type = %v, want %v", got, tc.typ)
			}
			if got := tc.g.NumPoints(); got != tc.numPoints {
				t.Errorf("NumPoints = %d, want %d", got, tc.numPoints)
			}
			edges := 0
			tc.g.EachEdge(func(a, b Point) bool { edges++; return true })
			if edges != tc.numEdges {
				t.Errorf("edges = %d, want %d", edges, tc.numEdges)
			}
			pts := 0
			tc.g.EachPoint(func(Point) bool { pts++; return true })
			if pts != tc.numPoints {
				t.Errorf("EachPoint count = %d, want %d", pts, tc.numPoints)
			}
		})
	}
}

func TestEachEdgeEarlyStop(t *testing.T) {
	mp := MultiPolygon{sq(0, 0, 1), sq(5, 5, 1)}
	count := 0
	mp.EachEdge(func(a, b Point) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("early stop saw %d edges, want 2", count)
	}
	coll := Collection{sq(0, 0, 1), sq(2, 2, 1)}
	count = 0
	coll.EachPoint(func(Point) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("early stop saw %d points, want 1", count)
	}
}

func TestPolygonBoundUsesOuterRing(t *testing.T) {
	poly := Polygon{
		Ring{{0, 0}, {10, 0}, {10, 10}, {0, 10}, {0, 0}},
		Ring{{2, 2}, {4, 2}, {4, 4}, {2, 4}, {2, 2}}, // hole
	}
	want := Box{0, 0, 10, 10}
	if got := poly.Bound(); got != want {
		t.Errorf("Bound = %+v, want %+v", got, want)
	}
}

func TestBoxAsRingRoundTrip(t *testing.T) {
	b := Box{1, 2, 5, 7}
	r := b.AsRing()
	if r.SignedArea() <= 0 {
		t.Error("box ring should be CCW")
	}
	if got := r.Bound(); got != b {
		t.Errorf("ring bound = %+v, want %+v", got, b)
	}
	if got := math.Abs(r.SignedArea()); got != 20 {
		t.Errorf("ring area = %v, want 20", got)
	}
}

func TestBoxOfMatchesExtend(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs)%2 == 1 {
			xs = xs[:len(xs)-1]
		}
		var pts []Point
		for i := 0; i+1 < len(xs); i += 2 {
			pts = append(pts, Point{xs[i], xs[i+1]})
		}
		got := BoxOf(pts...)
		want := EmptyBox()
		for _, p := range pts {
			want = want.Union(BoxOf(p))
		}
		if len(pts) == 0 {
			return got.IsEmpty()
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFeatureBound(t *testing.T) {
	f := &Feature{ID: 1, Geom: sq(0, 0, 2)}
	if got := f.Bound(); got != (Box{0, 0, 2, 2}) {
		t.Errorf("Bound = %+v", got)
	}
	empty := &Feature{ID: 2}
	if !empty.Bound().IsEmpty() {
		t.Error("feature without geometry should have empty bound")
	}
}

func TestGeomTypeString(t *testing.T) {
	names := map[GeomType]string{
		TypePoint:        "Point",
		TypeLineString:   "LineString",
		TypePolygon:      "Polygon",
		TypeMultiPolygon: "MultiPolygon",
		TypeCollection:   "GeometryCollection",
	}
	for typ, want := range names {
		if got := typ.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", typ, got, want)
		}
	}
	if got := GeomType(99).String(); got != "GeomType(99)" {
		t.Errorf("unknown type String = %q", got)
	}
}
