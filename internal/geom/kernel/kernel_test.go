package kernel

import (
	"fmt"
	"math/rand"
	"testing"

	"atgis/internal/geom"
)

// The differential harness: every kernel must agree with its scalar
// oracle bit for bit, on constructed degenerate cases (collinear
// touches, duplicate closing vertices, horizontal edges at the ray
// height) and on randomized integer-grid inputs where exact collinear
// and boundary configurations occur constantly.

func pt(x, y float64) geom.Point { return geom.Point{X: x, Y: y} }

// probePoints builds the point battery for a polygon: every vertex,
// every edge midpoint, near-offset neighbours of both, plus a coarse
// grid over (and beyond) the bound. Integer and half-integer
// coordinates keep collinear/boundary hits exact.
func probePoints(p geom.Polygon) (px, py []float64) {
	add := func(x, y float64) {
		px = append(px, x)
		py = append(py, y)
	}
	for _, r := range p {
		for i, v := range r {
			add(v.X, v.Y)
			add(v.X+0.5, v.Y)
			add(v.X, v.Y+0.5)
			add(v.X-0.25, v.Y-0.25)
			w := r[(i+1)%len(r)]
			add((v.X+w.X)/2, (v.Y+w.Y)/2)
		}
	}
	b := geom.Geometry(p).Bound()
	if b.MinX <= b.MaxX {
		for x := b.MinX - 1; x <= b.MaxX+1; x += 0.5 {
			for y := b.MinY - 1; y <= b.MaxY+1; y += 0.5 {
				add(x, y)
			}
		}
	}
	return px, py
}

func checkLocate(t *testing.T, name string, poly geom.Polygon, px, py []float64) {
	t.Helper()
	var slab PolySlab
	var out LocateOut
	if !slab.SetPolygon(poly) {
		// Degenerate polygon: the kernel consumer falls back to scalar,
		// but LocateBatch must still classify everything Outside exactly
		// as the scalar does.
		LocateBatch(&slab, px, py, &out)
		for i := range px {
			want := geom.LocatePointInPolygon(pt(px[i], py[i]), poly)
			if got := out.Location(i); got != want {
				t.Fatalf("%s: degenerate polygon point %d (%v,%v): kernel %v, scalar %v",
					name, i, px[i], py[i], got, want)
			}
		}
		return
	}
	LocateBatch(&slab, px, py, &out)
	for i := range px {
		want := geom.LocatePointInPolygon(pt(px[i], py[i]), poly)
		if got := out.Location(i); got != want {
			t.Fatalf("%s: point %d (%v,%v): kernel %v, scalar %v",
				name, i, px[i], py[i], got, want)
		}
	}
}

func TestLocateBatchMatchesScalar(t *testing.T) {
	sq := geom.Ring{pt(0, 0), pt(8, 0), pt(8, 8), pt(0, 8)}
	cases := []struct {
		name string
		poly geom.Polygon
	}{
		{"square-open", geom.Polygon{sq}},
		{"square-closed", geom.Polygon{{pt(0, 0), pt(8, 0), pt(8, 8), pt(0, 8), pt(0, 0)}}},
		{"square-double-closed", geom.Polygon{{pt(0, 0), pt(8, 0), pt(8, 8), pt(0, 8), pt(0, 0), pt(0, 0)}}},
		{"square-triple-closed", geom.Polygon{{pt(0, 0), pt(8, 0), pt(8, 8), pt(0, 8), pt(0, 0), pt(0, 0), pt(0, 0)}}},
		{"first-vertex-mid-ring", geom.Polygon{{pt(0, 0), pt(8, 0), pt(0, 0), pt(8, 8), pt(0, 8)}}},
		{"concave", geom.Polygon{{pt(0, 0), pt(8, 0), pt(8, 8), pt(4, 4), pt(0, 8)}}},
		{"with-hole", geom.Polygon{sq, {pt(2, 2), pt(6, 2), pt(6, 6), pt(2, 6)}}},
		{"hole-touching-outer", geom.Polygon{sq, {pt(0, 2), pt(4, 2), pt(4, 6), pt(0, 6)}}},
		{"two-holes", geom.Polygon{sq,
			{pt(1, 1), pt(3, 1), pt(3, 3), pt(1, 3)},
			{pt(5, 5), pt(7, 5), pt(7, 7), pt(5, 7)}}},
		{"hole-closed-redundantly", geom.Polygon{sq,
			{pt(2, 2), pt(6, 2), pt(6, 6), pt(2, 6), pt(2, 2), pt(2, 2)}}},
		// Horizontal edges exactly at probe-ray heights: the classic
		// crossing-parity trap.
		{"horizontal-edges", geom.Polygon{{pt(0, 0), pt(4, 0), pt(4, 4), pt(8, 4), pt(8, 8), pt(0, 8)}}},
		{"horizontal-spike", geom.Polygon{{pt(0, 0), pt(8, 0), pt(8, 4), pt(12, 4), pt(8, 4), pt(8, 8), pt(0, 8)}}},
		// Collinear consecutive edges (vertex strictly inside an edge).
		{"collinear-vertices", geom.Polygon{{pt(0, 0), pt(4, 0), pt(8, 0), pt(8, 8), pt(0, 8)}}},
		{"bowtie", geom.Polygon{{pt(0, 0), pt(8, 8), pt(8, 0), pt(0, 8)}}},
		{"triangle-degenerate-area", geom.Polygon{{pt(0, 0), pt(4, 4), pt(8, 8)}}},
		{"repeated-interior-vertex", geom.Polygon{{pt(0, 0), pt(8, 0), pt(8, 8), pt(8, 8), pt(0, 8)}}},
		{"empty", geom.Polygon{}},
		{"outer-too-small", geom.Polygon{{pt(0, 0), pt(8, 0)}}},
		{"outer-collapses", geom.Polygon{{pt(0, 0), pt(8, 0), pt(0, 0), pt(0, 0)}}},
	}
	for _, tc := range cases {
		px, py := probePoints(tc.poly)
		checkLocate(t, tc.name, tc.poly, px, py)
	}
}

// randomRing builds a ring on a small integer grid (degeneracies are
// the point), optionally closing it redundantly or repeating the first
// vertex mid-ring.
func randomRing(rng *rand.Rand) geom.Ring {
	n := 3 + rng.Intn(6)
	r := make(geom.Ring, 0, n+3)
	for i := 0; i < n; i++ {
		r = append(r, pt(float64(rng.Intn(9)), float64(rng.Intn(9))))
	}
	if rng.Intn(3) > 0 && len(r) > 0 {
		switch rng.Intn(3) {
		case 0: // close once
			r = append(r, r[0])
		case 1: // close redundantly
			r = append(r, r[0], r[0])
		default: // repeat the first vertex mid-ring, then close
			mid := 1 + rng.Intn(len(r)-1)
			r = append(r[:mid], append(geom.Ring{r[0]}, r[mid:]...)...)
			r = append(r, r[0])
		}
	}
	return r
}

func randomPolygon(rng *rand.Rand) geom.Polygon {
	p := geom.Polygon{randomRing(rng)}
	for h := rng.Intn(3); h > 0; h-- {
		p = append(p, randomRing(rng))
	}
	return p
}

func TestLocateBatchMatchesScalarRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20160626))
	for iter := 0; iter < 300; iter++ {
		poly := randomPolygon(rng)
		var px, py []float64
		for i := 0; i < 120; i++ {
			// Half-integer grid points collide with vertices and edges
			// constantly — exactly the boundary cases that must agree.
			px = append(px, float64(rng.Intn(21))/2-1)
			py = append(py, float64(rng.Intn(21))/2-1)
		}
		checkLocate(t, fmt.Sprintf("random-%d", iter), poly, px, py)
	}
}

func randomEdges(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, 2*n)
	for i := range pts {
		pts[i] = pt(float64(rng.Intn(7)), float64(rng.Intn(7)))
	}
	return pts
}

func TestSegmentKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 500; iter++ {
		ea := randomEdges(rng, 1+rng.Intn(6))
		eb := randomEdges(rng, 1+rng.Intn(6))
		var sb EdgeSlab
		for i := 0; i < len(eb); i += 2 {
			sb.Append(eb[i], eb[i+1])
		}
		for i := 0; i < len(ea); i += 2 {
			eInt, eCross := false, false
			for j := 0; j < len(eb); j += 2 {
				if geom.SegmentsIntersect(ea[i], ea[i+1], eb[j], eb[j+1]) {
					eInt = true
				}
				if geom.SegmentsCross(ea[i], ea[i+1], eb[j], eb[j+1]) {
					eCross = true
				}
			}
			if got := sb.AnyIntersectEdge(ea[i], ea[i+1]); got != eInt {
				t.Fatalf("iter %d: AnyIntersectEdge %v, scalar %v", iter, got, eInt)
			}
			if got := sb.AnyCrossEdge(ea[i], ea[i+1]); got != eCross {
				t.Fatalf("iter %d: AnyCrossEdge %v, scalar %v", iter, got, eCross)
			}
		}
	}
}

func TestSegmentKernelDegenerates(t *testing.T) {
	// Collinear touches, shared endpoints, zero-length edges, T-joints:
	// every case must take the rare path and agree with the scalar.
	pairs := [][4]geom.Point{
		{pt(0, 0), pt(4, 0), pt(2, 0), pt(6, 0)},  // collinear overlap
		{pt(0, 0), pt(4, 0), pt(4, 0), pt(8, 0)},  // collinear endpoint touch
		{pt(0, 0), pt(4, 0), pt(5, 0), pt(8, 0)},  // collinear disjoint
		{pt(0, 0), pt(4, 0), pt(2, 0), pt(2, 4)},  // T-joint
		{pt(0, 0), pt(4, 0), pt(4, 0), pt(4, 4)},  // corner touch
		{pt(0, 0), pt(4, 4), pt(2, 2), pt(2, 2)},  // zero-length on segment
		{pt(1, 1), pt(1, 1), pt(1, 1), pt(1, 1)},  // both zero-length equal
		{pt(1, 1), pt(1, 1), pt(2, 2), pt(2, 2)},  // both zero-length apart
		{pt(0, 0), pt(4, 0), pt(1, -1), pt(1, 1)}, // proper crossing
		{pt(0, 0), pt(4, 0), pt(0, 1), pt(4, 1)},  // parallel disjoint
	}
	for i, q := range pairs {
		var s EdgeSlab
		s.Append(q[2], q[3])
		wantInt := geom.SegmentsIntersect(q[0], q[1], q[2], q[3])
		wantCross := geom.SegmentsCross(q[0], q[1], q[2], q[3])
		if got := s.AnyIntersectEdge(q[0], q[1]); got != wantInt {
			t.Errorf("case %d: AnyIntersectEdge %v, scalar %v", i, got, wantInt)
		}
		if got := s.AnyCrossEdge(q[0], q[1]); got != wantCross {
			t.Errorf("case %d: AnyCrossEdge %v, scalar %v", i, got, wantCross)
		}
	}
}

func TestBoxFilterBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	boxes := make([]geom.Box, 0, 200)
	var slab BoxSlab
	for i := 0; i < 200; i++ {
		b := geom.Box{
			MinX: float64(rng.Intn(9)), MinY: float64(rng.Intn(9)),
			MaxX: float64(rng.Intn(9)), MaxY: float64(rng.Intn(9)),
		}
		// Leave some inverted (empty) on purpose.
		boxes = append(boxes, b)
		slab.Append(b)
	}
	boxes = append(boxes, geom.EmptyBox())
	slab.Append(geom.EmptyBox())
	var hits Bitset
	queries := append([]geom.Box{}, boxes[:20]...)
	queries = append(queries, geom.EmptyBox(), geom.Box{MinX: 0, MinY: 0, MaxX: 8, MaxY: 8})
	for qi, q := range queries {
		BoxFilterBatch(q, &slab, &hits)
		for i, b := range boxes {
			want := q.Intersects(b)
			if got := hits.Get(i); got != want {
				t.Fatalf("query %d box %d: kernel %v, scalar %v (q=%+v b=%+v)", qi, i, got, want, q, b)
			}
		}
	}
}

func randomGeometry(rng *rand.Rand) geom.Geometry {
	switch rng.Intn(4) {
	case 0:
		return geom.PointGeom{P: pt(float64(rng.Intn(9)), float64(rng.Intn(9)))}
	case 1:
		n := 2 + rng.Intn(5)
		ls := make(geom.LineString, n)
		for i := range ls {
			ls[i] = pt(float64(rng.Intn(9)), float64(rng.Intn(9)))
		}
		return ls
	case 2:
		return randomPolygon(rng)
	default:
		mp := geom.MultiPolygon{randomPolygon(rng)}
		if rng.Intn(2) == 0 {
			mp = append(mp, randomPolygon(rng))
		}
		return mp
	}
}

func TestCompositesMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 400; iter++ {
		a := randomGeometry(rng)
		b := randomGeometry(rng)
		want := geom.Intersects(a, b)
		var ae EdgeSlab
		ae.AppendGeometry(a)
		if got := IntersectsPreparedA(a, &ae, b); got != want {
			t.Fatalf("iter %d: IntersectsPreparedA kernel %v, scalar %v (a=%v b=%v)", iter, got, want, a, b)
		}
	}
}

// TestCompositesMultiPart: a multi-part geometry whose first part lies
// outside the other geometry and whose second lies strictly inside it
// intersects it, in every composite as in the oracle.
func TestCompositesMultiPart(t *testing.T) {
	sq := func(x, y, s float64) geom.Polygon {
		return geom.Box{MinX: x, MinY: y, MaxX: x + s, MaxY: y + s}.AsPolygon()
	}
	ref := sq(0, 0, 10)
	r := CompileRef(ref)
	var re EdgeSlab
	re.AppendGeometry(ref)
	for _, g := range []geom.Geometry{
		geom.MultiPolygon{sq(50, 50, 5), sq(2, 2, 2)},
		geom.Collection{geom.PointGeom{P: pt(50, 50)}, geom.LineString{pt(1, 1), pt(2, 2)}},
	} {
		if !geom.Intersects(g, ref) || !geom.Intersects(ref, g) {
			t.Fatalf("oracle: %v does not intersect %v", g, ref)
		}
		var ge EdgeSlab
		ge.AppendGeometry(g)
		if !IntersectsPreparedA(ref, &re, g) || !IntersectsPreparedA(g, &ge, ref) {
			t.Errorf("IntersectsPreparedA misses %v", g)
		}
		if !r.Intersects(g) {
			t.Errorf("RefPoly.Intersects misses %v", g)
		}
	}
}

func TestRefPolyMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	sc := AcquireScratch()
	defer ReleaseScratch(sc)
	for iter := 0; iter < 400; iter++ {
		ref := randomPolygon(rng)
		r := CompileRef(ref)
		if r == nil {
			continue
		}
		g := randomGeometry(rng)
		if got, want := r.Intersects(g), geom.Intersects(g, ref); got != want {
			t.Fatalf("iter %d: RefPoly.Intersects %v, scalar %v (g=%v ref=%v)", iter, got, want, g, ref)
		}
		if got, want := r.Within(g, sc), geom.Within(g, ref); got != want {
			t.Fatalf("iter %d: RefPoly.Within %v, scalar %v (g=%v ref=%v)", iter, got, want, g, ref)
		}
	}
}
