package atgis

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	"atgis/internal/geom"
	"atgis/internal/join"
	"atgis/internal/partition"
	"atgis/internal/query"
	"atgis/internal/synth"
	"atgis/internal/wkt"
)

func genDataset(t *testing.T, format Format, n int) *Dataset {
	t.Helper()
	g := synth.New(synth.Config{
		Seed: 12345, N: n,
		MultiPolyFrac: 0.15, LineFrac: 0.15, MetadataBytes: 40,
	})
	var buf bytes.Buffer
	var err error
	switch format {
	case GeoJSON:
		err = g.WriteGeoJSON(&buf)
	case WKT:
		err = g.WriteWKT(&buf)
	case OSMXML:
		// XML drops metadata and splits multipolygons differently; use
		// a polygon-only mix for cross-format comparisons.
		g = synth.New(synth.Config{Seed: 12345, N: n, MultiPolyFrac: 0.15, LineFrac: 0.15})
		err = g.WriteOSMXML(&buf)
	}
	if err != nil {
		t.Fatal(err)
	}
	ds, err := FromBytes(buf.Bytes(), format)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// testEngine is how a test gets its engine: a pool of the given size
// (0 = GOMAXPROCS), closed when the test ends. There is no other executor
// to test on.
func testEngine(t testing.TB, workers int) *Engine {
	t.Helper()
	eng := NewEngine(EngineConfig{Workers: workers})
	t.Cleanup(func() { eng.Close() })
	return eng
}

// newTestWKT wraps the wkt writer for test data construction.
func newTestWKT(buf *bytes.Buffer) *wkt.Writer { return wkt.NewWriter(buf) }

func aggSpec() *query.Spec {
	ref := query.ScaleBox(synth.Extent, 0.25).AsPolygon()
	return &query.Spec{
		Kind:     query.Aggregation,
		Ref:      ref,
		Pred:     query.PredIntersects,
		Dist:     geom.Haversine,
		WantArea: true, WantPerimeter: true, WantMBR: true,
	}
}

func TestFormatDetection(t *testing.T) {
	cases := []struct {
		data []byte
		want Format
	}{
		{[]byte(`{"type": "FeatureCollection"}`), GeoJSON},
		{[]byte("<?xml version=\"1.0\"?>\n<osm>"), OSMXML},
		{[]byte("42\tPOINT (1 2)\n"), WKT},
		{[]byte("-7\tPOINT (1 2)\n"), WKT},
	}
	for _, tc := range cases {
		ds, err := FromBytes(tc.data, AutoDetect)
		if err != nil {
			t.Fatalf("%q: %v", tc.data[:10], err)
		}
		if ds.Format != tc.want {
			t.Errorf("detect(%q) = %v, want %v", tc.data[:10], ds.Format, tc.want)
		}
	}
	if _, err := FromBytes([]byte("???"), AutoDetect); err == nil {
		t.Error("undetectable input should error")
	}
}

func TestQueryModesAgreeGeoJSON(t *testing.T) {
	ds := genDataset(t, GeoJSON, 300)
	spec := aggSpec()
	spec.KeepMatches = true

	results := map[string]*Result{}
	for _, mode := range []Mode{PAT, FAT} {
		for _, workers := range []int{1, 2, 4} {
			r, err := testEngine(t, workers).Query(context.Background(), ds, spec, Options{Mode: mode, BlockSize: 4096})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", mode, workers, err)
			}
			results[mode.String()] = r
			if r.Res.Count == 0 {
				t.Fatalf("%v: no matches", mode)
			}
			if r.Repaired > 0 || r.Reprocessed > 0 {
				t.Logf("%v: repaired=%d reprocessed=%d", mode, r.Repaired, r.Reprocessed)
			}
		}
	}
	pat, fat := results["PAT"].Res, results["FAT"].Res
	if pat.Count != fat.Count || pat.Scanned != fat.Scanned {
		t.Fatalf("counts differ: PAT %d/%d FAT %d/%d",
			pat.Count, pat.Scanned, fat.Count, fat.Scanned)
	}
	if math.Abs(pat.SumArea-fat.SumArea) > 1e-6*math.Abs(pat.SumArea) {
		t.Errorf("areas differ: %v vs %v", pat.SumArea, fat.SumArea)
	}
	if math.Abs(pat.SumPerimeter-fat.SumPerimeter) > 1e-6*math.Abs(pat.SumPerimeter) {
		t.Errorf("perimeters differ: %v vs %v", pat.SumPerimeter, fat.SumPerimeter)
	}
	if pat.MBR != fat.MBR {
		t.Errorf("MBRs differ: %+v vs %+v", pat.MBR, fat.MBR)
	}
	if len(pat.Matches) != len(fat.Matches) {
		t.Errorf("matches differ: %d vs %d", len(pat.Matches), len(fat.Matches))
	}
}

func TestQueryFormatsAgree(t *testing.T) {
	// GeoJSON and WKT encode identical features; aggregates must agree.
	dsG := genDataset(t, GeoJSON, 200)
	dsW := genDataset(t, WKT, 200)
	spec := aggSpec()
	rg, err := testEngine(t, 2).Query(context.Background(), dsG, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rw, err := testEngine(t, 2).Query(context.Background(), dsW, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rg.Res.Count != rw.Res.Count {
		t.Fatalf("counts: geojson %d wkt %d", rg.Res.Count, rw.Res.Count)
	}
	relDiff := math.Abs(rg.Res.SumArea-rw.Res.SumArea) / math.Abs(rg.Res.SumArea)
	if relDiff > 1e-9 {
		t.Errorf("area mismatch: %v vs %v", rg.Res.SumArea, rw.Res.SumArea)
	}
}

func TestQueryOSMXML(t *testing.T) {
	ds := genDataset(t, OSMXML, 150)
	spec := aggSpec()
	r, err := testEngine(t, 2).Query(context.Background(), ds, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Res.Count == 0 || r.Res.SumArea <= 0 {
		t.Fatalf("OSM query result empty: %+v", r.Res)
	}
	// Scanned must equal the number of top-level objects (ways not in
	// relations + relations).
	if r.Res.Scanned == 0 {
		t.Error("nothing scanned")
	}
}

func TestJoinAcrossFormats(t *testing.T) {
	for _, format := range []Format{WKT, GeoJSON} {
		ds := genDataset(t, format, 150)
		// Split by id parity.
		mask := func(f *geom.Feature) uint8 {
			if f.ID%2 == 0 {
				return query.SideA
			}
			return query.SideB
		}
		jr, err := testEngine(t, 2).Join(context.Background(), ds, JoinSpec{Mask: mask, CellSize: 30}, Options{})
		if err != nil {
			t.Fatalf("%v: %v", format, err)
		}
		// Oracle: nested loop over collected features.
		feats, err := testEngine(t, 2).CollectFeatures(context.Background(), ds, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var as, bs []geom.Feature
		for _, f := range feats {
			if f.ID%2 == 0 {
				as = append(as, f)
			} else {
				bs = append(bs, f)
			}
		}
		want := join.NestedLoop(as, bs, geom.Intersects)
		if len(jr.Pairs) != len(want) {
			t.Fatalf("%v: join pairs = %d, oracle = %d", format, len(jr.Pairs), len(want))
		}
		for i := range want {
			if jr.Pairs[i].AOff != want[i].AOff || jr.Pairs[i].BOff != want[i].BOff {
				t.Fatalf("%v: pair %d differs", format, i)
			}
		}
	}
}

// TestJoinCRLF: the join's WKT reparser hands a line over with its
// carriage return, which the parser must keep accepting now that it
// rejects trailing bytes: a CRLF rendering joins to the same id pairs.
func TestJoinCRLF(t *testing.T) {
	lf := genDataset(t, WKT, 150)
	crlf, err := FromBytes(bytes.ReplaceAll(lf.Bytes(), []byte("\n"), []byte("\r\n")), WKT)
	if err != nil {
		t.Fatal(err)
	}
	ids := func(ds *Dataset) [][2]int64 {
		jr, err := testEngine(t, 2).Join(context.Background(), ds, JoinSpec{CellSize: 30}, Options{BlockSize: 4 << 10})
		if err != nil {
			t.Fatal(err)
		}
		out := make([][2]int64, len(jr.Pairs))
		for i, p := range jr.Pairs {
			out[i] = [2]int64{p.AID, p.BID}
		}
		return out
	}
	want, got := ids(lf), ids(crlf)
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("CRLF join: %d pairs, LF join: %d", len(got), len(want))
	}
}

func TestJoinPartitionOptions(t *testing.T) {
	// Dense deterministic grid of overlapping squares guarantees pairs.
	var buf bytes.Buffer
	{
		w := newTestWKT(&buf)
		id := int64(0)
		for i := 0; i < 10; i++ {
			for j := 0; j < 10; j++ {
				x := float64(i) * 3
				y := float64(j) * 3
				f := geom.Feature{ID: id, Geom: geom.Polygon{geom.Ring{
					{X: x, Y: y}, {X: x + 4, Y: y}, {X: x + 4, Y: y + 4},
					{X: x, Y: y + 4}, {X: x, Y: y},
				}}}
				w.WriteFeature(&f)
				id++
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := FromBytes(buf.Bytes(), WKT)
	if err != nil {
		t.Fatal(err)
	}
	mask := func(f *geom.Feature) uint8 {
		if f.ID%2 == 0 {
			return query.SideA
		}
		return query.SideB
	}
	var baseline int
	for _, store := range []partition.StoreKind{partition.ArrayStore, partition.ListStore} {
		jr, err := testEngine(t, 2).Join(context.Background(), ds, JoinSpec{
			Mask: mask, CellSize: 15, Store: store,
		}, Options{})
		if err != nil {
			t.Fatalf("store=%v: %v", store, err)
		}
		if baseline == 0 {
			baseline = len(jr.Pairs)
			if baseline == 0 {
				t.Fatal("no join results; bad test data")
			}
			continue
		}
		if len(jr.Pairs) != baseline {
			t.Fatalf("store=%v: pairs %d != %d", store, len(jr.Pairs), baseline)
		}
	}
}

func TestCombinedQuery(t *testing.T) {
	// Overlapping squares with two sizes: big ones pass the >T1 filter,
	// small ones the <T2 filter; overlapping big/small pairs join.
	var buf bytes.Buffer
	w := newTestWKT(&buf)
	id := int64(0)
	for i := 0; i < 6; i++ {
		x := float64(i) * 10
		big := geom.Feature{ID: id, Geom: geom.Polygon{geom.Ring{
			{X: x, Y: 0}, {X: x + 8, Y: 0}, {X: x + 8, Y: 8}, {X: x, Y: 8}, {X: x, Y: 0},
		}}}
		w.WriteFeature(&big)
		id++
		small := geom.Feature{ID: id, Geom: geom.Polygon{geom.Ring{
			{X: x + 1, Y: 1}, {X: x + 2, Y: 1}, {X: x + 2, Y: 2}, {X: x + 1, Y: 2}, {X: x + 1, Y: 1},
		}}}
		w.WriteFeature(&small)
		id++
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	ds, err := FromBytes(buf.Bytes(), WKT)
	if err != nil {
		t.Fatal(err)
	}
	// Perimeters: big ≈ 32° ≈ 3.5e6 m; small ≈ 4° ≈ 4.4e5 m.
	cr, err := testEngine(t, 2).Combined(context.Background(), ds, CombinedSpec{
		T1: 2e6, T2: 1e6, Dist: geom.Haversine, CellSize: 15,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Each big square contains its small square: 6 pairs.
	if cr.Pairs != 6 {
		t.Fatalf("combined pairs = %d, want 6", cr.Pairs)
	}
	// Union area of containing pair = area of the big square; 6 of them.
	oneBig := geom.SphericalArea(geom.Polygon{geom.Ring{
		{X: 0, Y: 0}, {X: 8, Y: 0}, {X: 8, Y: 8}, {X: 0, Y: 8}, {X: 0, Y: 0},
	}})
	rel := math.Abs(cr.SumUnionArea-6*oneBig) / (6 * oneBig)
	if rel > 0.05 {
		t.Errorf("union area = %v, want ≈ %v (rel err %v)", cr.SumUnionArea, 6*oneBig, rel)
	}
}

func TestCollectFeaturesSorted(t *testing.T) {
	ds := genDataset(t, GeoJSON, 50)
	feats, err := testEngine(t, 2).CollectFeatures(context.Background(), ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(feats) != 50 {
		t.Fatalf("features = %d", len(feats))
	}
	for i := 1; i < len(feats); i++ {
		if feats[i].Offset <= feats[i-1].Offset {
			t.Fatal("features not sorted by offset")
		}
	}
}

func TestQueryWorkerCountInvariance(t *testing.T) {
	ds := genDataset(t, GeoJSON, 100)
	spec := aggSpec()
	var want int64 = -1
	for _, w := range []int{1, 2, 3, 8} {
		for _, bs := range []int{512, 4096, 1 << 20} {
			r, err := testEngine(t, w).Query(context.Background(), ds, spec, Options{Mode: FAT, BlockSize: bs})
			if err != nil {
				t.Fatal(err)
			}
			if want < 0 {
				want = r.Res.Count
				continue
			}
			if r.Res.Count != want {
				t.Fatalf("w=%d bs=%d: count %d != %d", w, bs, r.Res.Count, want)
			}
		}
	}
}
