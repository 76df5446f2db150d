package synth

import (
	"bytes"
	"testing"

	"atgis/internal/geojson"
	"atgis/internal/geom"
	"atgis/internal/osmxml"
	"atgis/internal/wkt"
)

func TestDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, N: 20, MetadataBytes: 30, MultiPolyFrac: 0.2, LineFrac: 0.2}
	var a, b bytes.Buffer
	if err := New(cfg).WriteGeoJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := New(cfg).WriteGeoJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("same seed produced different output")
	}
	var c bytes.Buffer
	cfg.Seed = 43
	if err := New(cfg).WriteGeoJSON(&c); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Error("different seeds produced identical output")
	}
}

func TestFeatureMixAndBounds(t *testing.T) {
	g := New(Config{Seed: 1, N: 300, MultiPolyFrac: 0.25, LineFrac: 0.25})
	counts := map[geom.GeomType]int{}
	g.Each(func(f *geom.Feature) {
		counts[f.Geom.Type()]++
		b := f.Geom.Bound()
		if b.IsEmpty() {
			t.Fatalf("feature %d: empty bound", f.ID)
		}
		// Shapes stay near the extent (small radius around a centre in
		// the extent).
		if b.MinX < Extent.MinX-2 || b.MaxX > Extent.MaxX+2 {
			t.Fatalf("feature %d out of extent: %+v", f.ID, b)
		}
	})
	if counts[geom.TypePolygon] == 0 || counts[geom.TypeMultiPolygon] == 0 || counts[geom.TypeLineString] == 0 {
		t.Errorf("type mix = %v", counts)
	}
}

func TestSigmaControlsSkew(t *testing.T) {
	// Higher σ must produce a higher maximum edge count across the
	// dataset (log-normal tail).
	maxEdges := func(sigma float64) int {
		g := New(Config{Seed: 5, N: 400, Sigma: sigma})
		m := 0
		g.Each(func(f *geom.Feature) {
			if n := f.Geom.NumPoints(); n > m {
				m = n
			}
		})
		return m
	}
	low, high := maxEdges(0.2), maxEdges(3)
	if high <= low {
		t.Errorf("σ=3 max %d <= σ=0.2 max %d", high, low)
	}
}

func TestReplication(t *testing.T) {
	g := New(Config{Seed: 9, N: 10, Replicate: 5})
	ids := map[int64]bool{}
	bounds := map[geom.Box]int{}
	total := 0
	g.Each(func(f *geom.Feature) {
		total++
		if ids[f.ID] {
			t.Fatalf("duplicate id %d", f.ID)
		}
		ids[f.ID] = true
		bounds[f.Geom.Bound()]++
	})
	if total != 50 {
		t.Fatalf("total = %d, want 50", total)
	}
	// Each geometry appears 5 times.
	for b, n := range bounds {
		if n != 5 {
			t.Fatalf("bound %+v appears %d times", b, n)
		}
	}
}

func TestGeneratedGeoJSONParses(t *testing.T) {
	var buf bytes.Buffer
	if err := New(Config{Seed: 3, N: 50, MetadataBytes: 60, MultiPolyFrac: 0.2, LineFrac: 0.2}).WriteGeoJSON(&buf); err != nil {
		t.Fatal(err)
	}
	n := 0
	err := geojson.ParseSequential(buf.Bytes(), &geojson.Config{}, func(geojson.FeatureOut) { n++ })
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Errorf("parsed %d features, want 50", n)
	}
}

func TestGeneratedWKTParses(t *testing.T) {
	var buf bytes.Buffer
	if err := New(Config{Seed: 3, N: 50, MultiPolyFrac: 0.3}).WriteWKT(&buf); err != nil {
		t.Fatal(err)
	}
	n := 0
	err := wkt.EachLine(buf.Bytes(), 0, int64(buf.Len()), func(line []byte, off int64) error {
		_, err := wkt.ParseLine(line, off)
		if err != nil {
			return err
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Errorf("parsed %d lines, want 50", n)
	}
}

func TestGeneratedOSMXMLParsesAndAssembles(t *testing.T) {
	var buf bytes.Buffer
	if err := New(Config{Seed: 3, N: 40, MultiPolyFrac: 0.25, LineFrac: 0.25}).WriteOSMXML(&buf); err != nil {
		t.Fatal(err)
	}
	input := buf.Bytes()
	el, err := osmxml.ParseElements(input, 0, int64(len(input)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(el.NodeIDs) == 0 || len(el.Ways) == 0 || len(el.Rels) == 0 {
		t.Fatalf("nodes=%d ways=%d relations=%d", len(el.NodeIDs), len(el.Ways), len(el.Rels))
	}
	nodes := osmxml.NewNodeTable()
	nodes.Append(el.NodeIDs, el.NodePts, el.Ascending)
	blocks := []osmxml.Elements{el}
	r := osmxml.Link(input, nodes, blocks).Resolver(nil)
	// All ways and relations must assemble.
	for i := range blocks[0].Ways {
		if _, err := r.Way(&blocks[0], i); err != nil {
			t.Fatal(err)
		}
	}
	for i, rel := range blocks[0].Rels {
		if _, err := r.Relation(&blocks[0], i); err != nil {
			t.Fatal(err)
		}
		if r.Build().NumPoints() == 0 {
			t.Fatalf("relation %d empty", rel.ID)
		}
	}
}
