// Pathology image analysis: the paper's second motivating domain (§1) —
// segmented microscopy images produce millions of cell-boundary polygons,
// and diagnosis latency depends on the data-to-query time of containment
// queries against regions of interest.
//
// The example simulates a segmented slide (dense small polygons on a
// planar pixel grid), then screens several regions of interest for
// anomalously large cells. One containment query is compiled per ROI and
// its matches are *streamed*: the anomaly screen runs while the parallel
// pass is still scanning the slide, and nothing buffers.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"

	"atgis"
	"atgis/internal/geojson"
	"atgis/internal/geom"
	"atgis/internal/query"
)

// writeSlide generates nuclei-like polygons over a wSlide×hSlide plane.
func writeSlide(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	w := geojson.NewWriter(&buf)
	const wSlide, hSlide = 10000.0, 10000.0
	for i := 0; i < n; i++ {
		cx := rng.Float64() * wSlide
		cy := rng.Float64() * hSlide
		// Cell radii are log-normal: a few anomalously large cells.
		r := 3 * math.Exp(rng.NormFloat64()*0.6)
		edges := 8 + rng.Intn(8)
		ring := make(geom.Ring, 0, edges+1)
		for e := 0; e < edges; e++ {
			a := 2 * math.Pi * float64(e) / float64(edges)
			rr := r * (0.8 + 0.4*rng.Float64())
			ring = append(ring, geom.Point{X: cx + rr*math.Cos(a), Y: cy + rr*math.Sin(a)})
		}
		f := geom.Feature{ID: int64(i), Geom: geom.Polygon{ring.Canonical()}}
		w.WriteFeature(&f)
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	return buf.Bytes()
}

func main() {
	slide := writeSlide(20000, 4)
	src, err := atgis.FromBytes(slide, atgis.GeoJSON)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("segmented slide: %.1f MB, 20000 cell polygons\n\n", float64(len(slide))/(1<<20))

	eng := atgis.NewEngine(atgis.EngineConfig{BlockSize: 256 << 10})
	defer eng.Close()

	// Screen three regions of interest. Planar coordinates: the anomaly
	// score uses the per-cell bounding boxes, read off the match stream.
	rois := []geom.Box{
		{MinX: 1000, MinY: 1000, MaxX: 3000, MaxY: 3000},
		{MinX: 4000, MinY: 4000, MaxX: 6000, MaxY: 6000},
		{MinX: 7000, MinY: 2000, MaxX: 9500, MaxY: 5000},
	}
	for i, roi := range rois {
		pq, err := eng.Prepare(&query.Spec{
			Kind: query.Containment,
			Ref:  roi.AsPolygon(),
			Pred: query.PredIntersects,
		}, atgis.Options{Mode: atgis.FAT})
		if err != nil {
			log.Fatal(err)
		}
		// Anomaly screen over the match stream: cells whose MBR diagonal
		// exceeds a threshold, scored as matches arrive.
		res := pq.Stream(context.Background(), src)
		cells, anomalies := 0, 0
		var largest float64
		for res.Next() {
			b := res.Match().Box
			d := math.Hypot(b.MaxX-b.MinX, b.MaxY-b.MinY)
			if d > 25 {
				anomalies++
			}
			if d > largest {
				largest = d
			}
			cells++
		}
		sum, err := res.Summary()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ROI %d: %5d cells, %3d anomalously large (max diameter %.1f px), %.1f MB/s\n",
			i+1, cells, anomalies, largest, sum.Stats.ThroughputMBs())
	}
}
