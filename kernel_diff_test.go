package atgis

// Differential matrix for the batched refinement kernels: the full
// sidecar_diff case matrix (every query mode, both join flavours)
// re-runs with the kernels force-disabled — pure scalar refinement —
// and then enabled, on cold and sidecar-warm engines. The rendered
// output must be byte-identical in every cell: the kernels' contract is
// bit-identity with the scalar predicates, not approximate agreement,
// so even the IEEE bit patterns of the float aggregates must match.

import (
	"context"
	"os"
	"slices"
	"testing"

	"atgis/internal/geom"
	"atgis/internal/geom/kernel"
	"atgis/internal/query"
	"atgis/internal/sidecar"
)

func TestKernelDifferential(t *testing.T) {
	if kernel.Disabled() {
		t.Fatal("kernels unexpectedly disabled at test entry")
	}
	for _, format := range []Format{GeoJSON, WKT, OSMXML} {
		format := format
		t.Run(format.String(), func(t *testing.T) {
			path := writeSidecarCorpus(t, format)

			// Scalar reference: kernels off, cold engine.
			kernel.SetDisabled(true)
			scalarEng := NewEngine(EngineConfig{Workers: 4})
			scalar := runAllCases(t, scalarEng, mustOpen(t, path))
			scalarEng.Close()
			kernel.SetDisabled(false)

			// Kernels on, cold engine.
			kernEng := NewEngine(EngineConfig{Workers: 4})
			defer kernEng.Close()
			compareCases(t, "kernels on, cold", runAllCases(t, kernEng, mustOpen(t, path)), scalar)

			// Kernels on over a sidecar-warm pass: the structural index
			// changes which features reach refinement pre-pruned, not
			// what refinement must answer.
			rwEng := NewEngine(EngineConfig{Workers: 4, Sidecar: SidecarReadWrite})
			defer rwEng.Close()
			warmSrc := mustOpen(t, path)
			compareCases(t, "kernels on, recording", runAllCases(t, rwEng, warmSrc), scalar)
			compareCases(t, "kernels on, warm", runAllCases(t, rwEng, warmSrc), scalar)
			if st := warmSrc.SidecarStats(); !st.Built || st.Hits == 0 {
				t.Fatalf("warm leg did not exercise the sidecar: %+v", st)
			}

			// Kernels off again over the recorded sidecar: warm scalar
			// equals warm kernel equals cold scalar.
			kernel.SetDisabled(true)
			defer kernel.SetDisabled(false)
			roEng := NewEngine(EngineConfig{Workers: 4, Sidecar: SidecarRead})
			defer roEng.Close()
			offSrc := mustOpen(t, path)
			compareCases(t, "kernels off, warm", runAllCases(t, roEng, offSrc), scalar)
			if st := offSrc.SidecarStats(); st.Hits == 0 {
				t.Fatalf("kernels-off warm leg did not serve from the sidecar: %+v", st)
			}
			if err := os.Remove(sidecar.PathFor(path)); err != nil {
				t.Fatal(err)
			}
			kernel.SetDisabled(false)
		})
	}
}

// TestKernelDifferentialMultiPart: a multipolygon and a collection whose
// first part lies far outside the window and whose second lies strictly
// inside it both match, in either format, with the kernels on and off; a
// polygon far outside does not.
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
	defer kernel.SetDisabled(false)
	for format, doc := range docs {
		src, err := FromBytes([]byte(doc), format)
		if err != nil {
			t.Fatal(err)
		}
		for _, off := range []bool{true, false} {
			kernel.SetDisabled(off)
			res, err := testEngine(t, 2).Query(context.Background(), src, spec, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var ids []int64
			for _, m := range res.Res.Matches {
				ids = append(ids, m.ID)
			}
			if !slices.Equal(ids, []int64{1, 2}) || res.Res.Scanned != 3 {
				t.Errorf("%v, kernels off %v: matched %v of %d, want [1 2] of 3", format, off, ids, res.Res.Scanned)
			}
		}
	}
}
