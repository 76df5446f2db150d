// Command atgis-gen produces the synthetic evaluation datasets (paper
// Table 2 stand-ins):
//
//	atgis-gen -n 100000 -format geojson -o osm-g.json
//	atgis-gen -n 5000 -sigma 5 -format geojson -o synth-skew.json
//	atgis-gen -n 10000 -replicate 10 -format wkt -o osm-10g.wkt
package main

import (
	"flag"
	"fmt"
	"os"

	"atgis/internal/synth"
)

func main() {
	n := flag.Int("n", 10000, "number of features")
	sigma := flag.Float64("sigma", 0.5, "log-normal σ of the edge-count distribution")
	meanEdges := flag.Float64("edges", 12, "median polygon edge count")
	mpFrac := flag.Float64("multipoly", 0.15, "multipolygon fraction")
	lineFrac := flag.Float64("lines", 0.15, "linestring fraction")
	meta := flag.Int("metadata", 60, "free-form metadata bytes per feature")
	replicate := flag.Int("replicate", 1, "replication factor (OSM-10G style)")
	seed := flag.Int64("seed", 1, "generator seed")
	format := flag.String("format", "geojson", "geojson | wkt | osmxml")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	// Every flag is checked before -o is created: a bad one must leave an
	// existing output file as it was.
	switch *format {
	case "geojson", "wkt", "osmxml":
	default:
		usage(fmt.Sprintf("atgis-gen: unknown -format %q (want geojson, wkt or osmxml)", *format))
	}
	for name, v := range map[string]int{"n": *n, "metadata": *meta, "replicate": *replicate} {
		if v < 0 {
			usage(fmt.Sprintf("atgis-gen: -%s %d is negative", name, v))
		}
	}

	g := synth.New(synth.Config{
		Seed: *seed, N: *n, Sigma: *sigma, MeanEdges: *meanEdges,
		MultiPolyFrac: *mpFrac, LineFrac: *lineFrac,
		MetadataBytes: *meta, Replicate: *replicate,
	})
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		w = f
	}
	var err error
	switch *format {
	case "geojson":
		err = g.WriteGeoJSON(w)
	case "wkt":
		err = g.WriteWKT(w)
	case "osmxml":
		err = g.WriteOSMXML(w)
	}
	if w != os.Stdout {
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}
	fatal(err)
}

// usage reports a bad flag and exits 2 before any output is created.
func usage(msg string) {
	fmt.Fprintln(os.Stderr, msg)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "atgis-gen:", err)
		os.Exit(1)
	}
}
