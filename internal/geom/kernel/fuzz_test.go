package kernel

import (
	"testing"

	"atgis/internal/geom"
)

// FuzzKernelVsScalar decodes arbitrary bytes into a polygon, a point
// battery, an edge list, join partners and a box slab on a coarse
// byte-quantized grid (collinear and boundary coincidences occur
// constantly), then requires every kernel to agree exactly with its
// scalar oracle. Run as CI fuzz smoke.
func FuzzKernelVsScalar(f *testing.F) {
	shapes := []byte{4, 0, 0, 80, 0, 80, 80, 0, 80, 3, 10, 10, 40, 40, 90, 90, 2, 0, 0, 80, 80, 10, 10, 10, 70}
	f.Add(shapes)
	f.Add([]byte{3, 0, 0, 8, 8, 16, 0, 1, 4, 4})
	f.Add([]byte{})
	// The first seed's shapes take 63 bytes (zero padded); then a query
	// box and 130 boxes — three bitset words, the last partial — every
	// third one empty.
	slab := append(append(shapes[:len(shapes):len(shapes)], make([]byte, 63-len(shapes))...), 8, 8, 40, 40, 130)
	for i := byte(0); i < 130; i++ {
		lo := i % 60
		if i%3 == 0 {
			slab = append(slab, lo+4, lo, lo, lo+4)
		} else {
			slab = append(slab, lo, lo, lo+4, lo+4)
		}
	}
	f.Add(slab)
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			v := data[0]
			data = data[1:]
			return v
		}
		coord := func() float64 {
			// Quarter-integer grid in [0, 16): exact arithmetic, dense
			// coincidences.
			return float64(next()%64) / 4
		}
		ring := func(n int) geom.Ring {
			r := make(geom.Ring, n)
			for i := range r {
				r[i] = geom.Point{X: coord(), Y: coord()}
			}
			return r
		}

		poly := geom.Polygon{ring(int(next()%8) + 1)}
		for h := int(next() % 3); h > 0; h-- {
			poly = append(poly, ring(int(next()%6)+1))
		}

		np := int(next()%32) + 1
		px := make([]float64, np)
		py := make([]float64, np)
		for i := 0; i < np; i++ {
			px[i] = coord()
			py[i] = coord()
		}

		var slab PolySlab
		slab.SetPolygon(poly)
		var out LocateOut
		LocateBatch(&slab, px, py, &out)
		for i := 0; i < np; i++ {
			want := geom.LocatePointInPolygon(geom.Point{X: px[i], Y: py[i]}, poly)
			if got := out.Location(i); got != want {
				t.Fatalf("LocateBatch point %d (%v,%v): kernel %v, scalar %v (poly=%v)",
					i, px[i], py[i], got, want, poly)
			}
		}

		ne := int(next()%8) + 1
		var es EdgeSlab
		edges := make([][2]geom.Point, ne)
		for i := range edges {
			edges[i] = [2]geom.Point{{X: coord(), Y: coord()}, {X: coord(), Y: coord()}}
			es.Append(edges[i][0], edges[i][1])
		}
		qa := geom.Point{X: coord(), Y: coord()}
		qb := geom.Point{X: coord(), Y: coord()}
		wantInt, wantCross := false, false
		for _, e := range edges {
			if geom.SegmentsIntersect(qa, qb, e[0], e[1]) {
				wantInt = true
			}
			if geom.SegmentsCross(qa, qb, e[0], e[1]) {
				wantCross = true
			}
		}
		if got := es.AnyIntersectEdge(qa, qb); got != wantInt {
			t.Fatalf("AnyIntersectEdge %v, scalar %v (q=%v-%v edges=%v)", got, wantInt, qa, qb, edges)
		}
		if got := es.AnyCrossEdge(qa, qb); got != wantCross {
			t.Fatalf("AnyCrossEdge %v, scalar %v (q=%v-%v edges=%v)", got, wantCross, qa, qb, edges)
		}

		// Whole-geometry composites against a compiled reference.
		if ref := CompileRef(poly); ref != nil {
			g := geom.Polygon{ring(int(next()%6) + 1)}
			sc := AcquireScratch()
			if got, want := ref.Intersects(g), geom.Intersects(g, ref.Poly); got != want {
				ReleaseScratch(sc)
				t.Fatalf("RefPoly.Intersects %v, scalar %v (g=%v ref=%v)", got, want, g, poly)
			}
			if got, want := ref.Within(g, sc), geom.Within(g, ref.Poly); got != want {
				ReleaseScratch(sc)
				t.Fatalf("RefPoly.Within %v, scalar %v (g=%v ref=%v)", got, want, g, poly)
			}
			ReleaseScratch(sc)
		}

		// The join's refinement: one A slab filled once, reused against
		// several B geometries, as a cell's A entry meets its partners.
		var ae EdgeSlab
		ae.AppendGeometry(poly)
		for nb := int(next()%4) + 1; nb > 0; nb-- {
			var b geom.Geometry
			switch next() % 3 {
			case 0:
				b = geom.Polygon{ring(int(next()%6) + 1)}
			case 1:
				b = geom.LineString(ring(int(next()%4) + 1))
			default:
				b = geom.PointGeom{P: geom.Point{X: coord(), Y: coord()}}
			}
			if got, want := IntersectsPreparedA(poly, &ae, b), geom.Intersects(poly, b); got != want {
				t.Fatalf("IntersectsPreparedA %v, scalar %v (a=%v b=%v)", got, want, poly, b)
			}
		}

		// The join's MBR compare: a slab of 0–130 boxes (across the
		// 64-bit word boundaries, empty boxes included) against one query
		// box, box by box against Box.Intersects.
		box := func() geom.Box {
			return geom.Box{MinX: coord(), MinY: coord(), MaxX: coord(), MaxY: coord()}
		}
		q := box()
		var slab2 BoxSlab
		boxes := make([]geom.Box, int(next())%131)
		for i := range boxes {
			boxes[i] = box()
			slab2.Append(boxes[i])
		}
		var hits Bitset
		BoxFilterBatch(q, &slab2, &hits)
		if len(hits) != (len(boxes)+63)/64 {
			t.Fatalf("BoxFilterBatch: %d words for %d boxes", len(hits), len(boxes))
		}
		for i, b := range boxes {
			if got, want := hits.Get(i), q.Intersects(b); got != want {
				t.Fatalf("BoxFilterBatch box %d: kernel %v, scalar %v (q=%v b=%v)", i, got, want, q, b)
			}
		}
		if n := len(boxes); n&63 != 0 && hits[n>>6]>>(uint(n)&63) != 0 {
			t.Fatalf("BoxFilterBatch set bits past box %d: %064b", n, hits[n>>6])
		}
	})
}
