package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"atgis"
	"atgis/internal/geom"
	"atgis/internal/query"
	"atgis/internal/synth"
)

// Feature counts at -scale 1. The issue's sizes (40 000 / 30 000 /
// 8 000) are shrunk so that one run fits the driver's per-run budget
// and still takes at least 20 passes per scan variant.
const (
	scanFeatures  = 24000 // cold_scan, warm_window, serve_mixed, cluster_scatter queries
	joinFeatures  = 12000 // join_cells
	sjoinFeatures = 8000  // /v1/join in serve_mixed and cluster_scatter
	crossCheckN   = 2000  // features the join oracle re-derives by nested loop
	windowPool    = 512   // distinct selective windows a run cycles through
)

// Window sizes as fractions of the data extent's area.
const (
	fracScan      = 0.05 // cold_scan's fixed centred window
	fracSelective = 0.03 // the seeded random windows
	fracAgg       = 0.25 // aggregation windows
	fracWide      = 0.7  // the wide streaming containment
)

// dataset is one seeded feature set, rendered in the formats a workload
// asks for. The program under test sees only the files; feats is the
// generator's own output, kept for the oracle.
type dataset struct {
	n      int
	path   map[atgis.Format]string
	size   map[atgis.Format]int64
	feats  []geom.Feature
	bounds []geom.Box
}

var formatExt = map[atgis.Format]string{atgis.GeoJSON: "geojson", atgis.WKT: "wkt", atgis.OSMXML: "osm.xml"}

// synthConfig is atgis-gen's defaults: median 12 edges, σ 0.5, 15 %
// multipolygons, 15 % lines, 60 B metadata.
func synthConfig(seed int64, n int) synth.Config {
	return synth.Config{Seed: seed, N: n, Sigma: 0.5, MeanEdges: 12,
		MultiPolyFrac: 0.15, LineFrac: 0.15, MetadataBytes: 60}
}

// genDataset writes name.<ext> under dir for each format. Every format
// and the oracle's feature list come from generators with the same
// seed, so they describe the same features.
func genDataset(dir, name string, seed int64, n int, formats ...atgis.Format) (*dataset, error) {
	d := &dataset{n: n, path: make(map[atgis.Format]string), size: make(map[atgis.Format]int64)}
	for _, f := range formats {
		p := filepath.Join(dir, name+"."+formatExt[f])
		if err := writeDataset(p, f, synthConfig(seed, n)); err != nil {
			return nil, fmt.Errorf("generate %s: %w", p, err)
		}
		st, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		d.path[f], d.size[f] = p, st.Size()
	}
	d.feats = make([]geom.Feature, 0, n)
	d.bounds = make([]geom.Box, 0, n)
	synth.New(synthConfig(seed, n)).Each(func(f *geom.Feature) {
		d.feats = append(d.feats, geom.Feature{ID: f.ID, Geom: f.Geom})
		d.bounds = append(d.bounds, f.Geom.Bound())
	})
	return d, nil
}

func writeDataset(path string, format atgis.Format, cfg synth.Config) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	g := synth.New(cfg)
	switch format {
	case atgis.GeoJSON:
		err = g.WriteGeoJSON(w)
	case atgis.WKT:
		err = g.WriteWKT(w)
	case atgis.OSMXML:
		err = g.WriteOSMXML(w)
	default:
		err = fmt.Errorf("no writer for %v", format)
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// centredBox is the window of the given area fraction in the middle of
// the extent.
func centredBox(frac float64) geom.Box { return query.ScaleBox(synth.Extent, frac) }

// randomBoxes returns n windows of the given area fraction at seeded
// random centres, kept inside the extent.
func randomBoxes(seed int64, n int, frac float64) []geom.Box {
	rng := rand.New(rand.NewSource(seed))
	base := query.ScaleBox(synth.Extent, frac)
	w, h := base.MaxX-base.MinX, base.MaxY-base.MinY
	out := make([]geom.Box, n)
	for i := range out {
		x := synth.Extent.MinX + rng.Float64()*(synth.Extent.MaxX-synth.Extent.MinX-w)
		y := synth.Extent.MinY + rng.Float64()*(synth.Extent.MaxY-synth.Extent.MinY-h)
		out[i] = geom.Box{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
	}
	return out
}

// scaled applies -scale to a feature count, keeping enough features for
// every workload to have something to match.
func scaled(n int, scale float64) int {
	if s := int(float64(n) * scale); s > 200 {
		return s
	}
	return 200
}
