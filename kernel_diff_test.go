package atgis

// Oracles for the refinement kernels. The engine refines a polygon
// reference's window predicate and every join pair through the batched
// slab kernels; their contract is bit-identity with the scalar
// predicates in internal/geom, not approximate agreement. So every
// feature of the sidecar corpus, in every format, goes through
// query.ApplyBox under each spec of the sidecar_diff matrix and must
// equal the scalar predicate and aggregates called directly, float
// results compared as bit patterns; and the corpus's parity join must
// equal the nested loop over the same features.

import (
	"context"
	"slices"
	"testing"

	"atgis/internal/geom"
	"atgis/internal/join"
	"atgis/internal/query"
	"atgis/internal/synth"
)

func TestKernelDifferential(t *testing.T) {
	eng := NewEngine(EngineConfig{Workers: 4})
	defer eng.Close()
	for _, format := range []Format{GeoJSON, WKT, OSMXML} {
		t.Run(format.String(), func(t *testing.T) {
			src := mustOpen(t, writeSidecarCorpus(t, format))
			feats := collect(t, eng, src)
			testApplyOracle(t, feats)
			testJoinOracle(t, eng, src, feats)
			// The sidecar corpus holds one pair at most: a denser
			// rendering of the generator gives the refinement hundreds
			// of MBR hits, some of which it must refute.
			dense := mustOpen(t, writeCorpus(t, format, synth.Config{Seed: 20160626, N: 400,
				MultiPolyFrac: 0.15, LineFrac: 0.15, ExtentScale: 0.01}))
			st := testJoinOracle(t, eng, dense, collect(t, eng, dense))
			if st.Refined < 100 || st.Candidates == st.Refined {
				t.Fatalf("dense join: %+v — want 100 pairs or more and a refuted candidate", st)
			}
		})
	}
}

func collect(t *testing.T, eng *Engine, src Source) []geom.Feature {
	t.Helper()
	feats, err := eng.CollectFeatures(context.Background(), src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return feats
}

// testApplyOracle runs every feature through query.ApplyBox under each
// spec of sidecarDiffCases and compares it with the scalar predicate and
// aggregates.
func testApplyOracle(t *testing.T, feats []geom.Feature) {
	t.Helper()
	matched := map[query.Predicate]int{}
	for _, c := range sidecarDiffCases() {
		if c.spec == nil {
			continue
		}
		s := *c.spec
		s.Normalize()
		for i := range feats {
			f := &feats[i]
			if f.Geom == nil {
				continue
			}
			box := f.Geom.Bound()
			got := query.ApplyBox(&s, f, box)
			var want query.FeatureVal
			if s.Ref == nil || s.Pred.Eval(f.Geom, s.Ref) {
				want = query.FeatureVal{Matched: true, Box: box}
				if s.WantArea {
					want.Area = geom.SphericalArea(f.Geom)
				}
				if s.WantPerimeter {
					want.Perimeter = geom.Perimeter(f.Geom, s.Dist)
				}
				matched[s.Pred]++
			}
			if got.Matched != want.Matched || bits(got.Area) != bits(want.Area) ||
				bits(got.Perimeter) != bits(want.Perimeter) || renderBox(got.Box) != renderBox(want.Box) {
				t.Fatalf("%s: feature %d@%d: ApplyBox %+v, scalar %+v", c.name, f.ID, f.Offset, got, want)
			}
		}
	}
	for _, p := range []query.Predicate{query.PredIntersects, query.PredWithin, query.PredDisjoint} {
		if matched[p] == 0 {
			t.Fatalf("no feature matched %v under any spec — the matrix does not exercise its refinement", p)
		}
	}
}

// testJoinOracle compares the parity join of src through Engine.Join
// with the nested loop over feats, the features of src, on each side.
func testJoinOracle(t *testing.T, eng *Engine, src Source, feats []geom.Feature) join.Stats {
	t.Helper()
	jr, err := eng.Join(context.Background(), src, JoinSpec{Mask: paritySideMask, CellSize: 10, BoundsSafeMask: true}, Options{BlockSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var as, bs []geom.Feature
	for _, f := range feats {
		if paritySideMask(&f)&query.SideA != 0 {
			as = append(as, f)
		} else {
			bs = append(bs, f)
		}
	}
	if want := join.NestedLoop(as, bs, geom.Intersects); !slices.Equal(jr.Pairs, want) {
		t.Fatalf("Engine.Join found %d pairs, the nested loop %d", len(jr.Pairs), len(want))
	}
	return jr.JoinStats
}

// TestKernelDifferentialMultiPart: a multipolygon and a collection whose
// first part lies far outside the window and whose second lies strictly
// inside it both match, in either format, as the scalar predicate says;
// a polygon far outside does not.
func TestKernelDifferentialMultiPart(t *testing.T) {
	docs := map[Format]string{
		GeoJSON: `{"type":"FeatureCollection","features":[
{"type":"Feature","id":1,"geometry":{"type":"MultiPolygon","coordinates":[[[[50,50],[55,50],[55,55],[50,55],[50,50]]],[[[1,1],[3,1],[3,3],[1,3],[1,1]]]]},"properties":{}},
{"type":"Feature","id":2,"geometry":{"type":"GeometryCollection","geometries":[{"type":"Point","coordinates":[50,50]},{"type":"LineString","coordinates":[[1,1],[2,2]]}]},"properties":{}},
{"type":"Feature","id":3,"geometry":{"type":"Polygon","coordinates":[[[30,30],[31,30],[31,31],[30,31],[30,30]]]},"properties":{}}
]}`,
		WKT: "1\tMULTIPOLYGON (((50 50, 55 50, 55 55, 50 55, 50 50)), ((1 1, 3 1, 3 3, 1 3, 1 1)))\n" +
			"2\tGEOMETRYCOLLECTION (POINT (50 50), LINESTRING (1 1, 2 2))\n" +
			"3\tPOLYGON ((30 30, 31 30, 31 31, 30 31, 30 30))\n",
	}
	spec := &query.Spec{Kind: query.Containment, Pred: query.PredIntersects, KeepMatches: true,
		Ref: geom.Box{MinX: -10, MinY: -10, MaxX: 10, MaxY: 10}.AsPolygon()}
	eng := testEngine(t, 2)
	for format, doc := range docs {
		src, err := FromBytes([]byte(doc), format)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Query(context.Background(), src, spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var ids []int64
		for _, m := range res.Res.Matches {
			ids = append(ids, m.ID)
		}
		if !slices.Equal(ids, []int64{1, 2}) || res.Res.Scanned != 3 {
			t.Errorf("%v: matched %v of %d, want [1 2] of 3", format, ids, res.Res.Scanned)
		}
		feats, err := eng.CollectFeatures(context.Background(), src, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var scalar []int64
		for _, f := range feats {
			if spec.Pred.Eval(f.Geom, spec.Ref) {
				scalar = append(scalar, f.ID)
			}
		}
		if !slices.Equal(scalar, ids) {
			t.Errorf("%v: the scalar predicate matches %v, the engine %v", format, scalar, ids)
		}
	}
}
