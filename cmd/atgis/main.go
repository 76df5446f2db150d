// Command atgis runs spatial queries directly over raw GeoJSON, WKT or
// OSM XML files with no loading phase. Inputs are memory-mapped ("-"
// reads stdin), queries run on a shared engine, and Ctrl-C cancels the
// in-flight pipeline:
//
//	atgis -query aggregation -ref "-10,-10,10,10" data.geojson
//	atgis -query containment -mode fat -workers 8 data.geojson
//	atgis -query join -cell 1 data.wkt
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"atgis"
	"atgis/internal/geom"
	"atgis/internal/query"
)

func parseBox(s string) (geom.Box, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return geom.Box{}, fmt.Errorf("ref must be minx,miny,maxx,maxy")
	}
	var v [4]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return geom.Box{}, err
		}
		v[i] = f
	}
	return geom.Box{MinX: v[0], MinY: v[1], MaxX: v[2], MaxY: v[3]}, nil
}

// openSource maps the input file, or buffers stdin for "-".
func openSource(path string) (atgis.Source, error) {
	if path == "-" {
		return atgis.ReaderSource(os.Stdin, atgis.AutoDetect)
	}
	return atgis.OpenMapped(path, atgis.AutoDetect)
}

func main() {
	queryKind := flag.String("query", "aggregation", "containment | aggregation | join")
	ref := flag.String("ref", "-45,-45,45,45", "reference box: minx,miny,maxx,maxy")
	mode := flag.String("mode", "pat", "pat | fat")
	workers := flag.Int("workers", 0, "worker threads (0 = NumCPU)")
	blockSize := flag.Int("block", 1<<20, "block size in bytes")
	cell := flag.Float64("cell", 1, "join partition cell size in degrees")
	distName := flag.String("dist", "haversine", "spherical | haversine | andoyer")
	show := flag.Int("show", 0, "stream and print the first N matches/pairs")
	sidecarFlag := flag.String("sidecar", "off", "structural sidecar index: off | read | readwrite")
	flag.Parse()

	if flag.NArg() != 1 {
		usage("usage: atgis [flags] <datafile|->")
	}
	opt := atgis.Options{BlockSize: *blockSize}
	switch strings.ToLower(*mode) {
	case "pat":
	case "fat":
		opt.Mode = atgis.FAT
	default:
		usage(fmt.Sprintf("atgis: unknown -mode %q (want pat or fat)", *mode))
	}
	var dist geom.DistanceMethod
	switch strings.ToLower(*distName) {
	case "haversine":
		dist = geom.Haversine
	case "spherical":
		dist = geom.SphericalProjection
	case "andoyer":
		dist = geom.Andoyer
	default:
		usage(fmt.Sprintf("atgis: unknown -dist %q (want spherical, haversine or andoyer)", *distName))
	}
	// The engine's rule, checked before the input is opened: 0 means 1°.
	if c := *cell; c != 0 && !(c >= atgis.MinJoinCell && c <= 360) {
		usage(fmt.Sprintf("atgis: bad -cell %g (want 0, or %g to 360 degrees)", c, atgis.MinJoinCell))
	}
	kind := strings.ToLower(*queryKind)
	switch kind {
	case "containment", "aggregation", "join":
	default:
		usage(fmt.Sprintf("atgis: unknown -query %q (want containment, aggregation or join)", *queryKind))
	}
	sidecarMode, err := atgis.ParseSidecarMode(*sidecarFlag)
	if err != nil {
		usage(err.Error())
	}
	box, err := parseBox(*ref)
	if err != nil {
		usage(fmt.Sprintf("atgis: bad -ref %q: %v", *ref, err))
	}

	// Ctrl-C cancels the in-flight query pipeline.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	src, err := openSource(flag.Arg(0))
	fatal(err)
	defer src.Close()
	fmt.Printf("dataset: %s (%s, %.1f MB)\n", flag.Arg(0), src.DataFormat(), float64(len(src.Bytes()))/(1<<20))

	eng := atgis.NewEngine(atgis.EngineConfig{Workers: *workers, BlockSize: *blockSize, Sidecar: sidecarMode})
	defer eng.Close()

	switch kind {
	case "containment":
		spec := &query.Spec{
			Kind: query.Containment, Ref: box.AsPolygon(),
			Pred: query.PredIntersects,
		}
		pq, err := eng.Prepare(spec, opt)
		fatal(err)
		// Stream matches instead of buffering the result set.
		res := pq.Stream(ctx, src)
		matched := 0
		for res.Next() {
			if matched < *show {
				m := res.Match()
				fmt.Printf("  match id=%d offset=%d mbr=%+v\n", m.ID, m.Offset, m.Box)
			}
			matched++
		}
		sum, err := res.Summary()
		fatal(err)
		fmt.Printf("matched %d of %d objects\n", matched, sum.Res.Scanned)
		printStats(sum)
	case "aggregation":
		spec := &query.Spec{
			Kind: query.Aggregation, Ref: box.AsPolygon(),
			Pred: query.PredIntersects, Dist: dist,
			WantArea: true, WantPerimeter: true, WantMBR: true,
		}
		pq, err := eng.Prepare(spec, opt)
		fatal(err)
		res, err := pq.Execute(ctx, src)
		fatal(err)
		fmt.Printf("matched %d of %d objects\n", res.Res.Count, res.Res.Scanned)
		fmt.Printf("total area: %.3f km²\n", res.Res.SumArea/1e6)
		fmt.Printf("total perimeter: %.3f km\n", res.Res.SumPerimeter/1e3)
		printStats(res)
	case "join":
		start := time.Now()
		spec := atgis.JoinSpec{
			Mask: func(f *geom.Feature) uint8 {
				if f.ID%2 == 0 {
					return query.SideA
				}
				return query.SideB
			},
			CellSize: *cell,
			// The parity mask reads only f.ID, so a warm partition rebuild
			// from the sidecar tape (boxes instead of full geometry) is safe.
			BoundsSafeMask: true,
		}
		// Stream pairs: nothing buffers, duplicates are suppressed at the
		// source by the reference-point test.
		pairs := eng.JoinStream(ctx, src, spec, opt)
		n := 0
		for pairs.Next() {
			if n < *show {
				p := pairs.Pair()
				fmt.Printf("  pair a=%d b=%d\n", p.AID, p.BID)
			}
			n++
		}
		sum, err := pairs.Summary()
		fatal(err)
		fmt.Printf("join: %d pairs (candidates %d, duplicates suppressed %d) in %v\n",
			n, sum.JoinStats.Candidates, sum.JoinStats.Duplicates, time.Since(start))
	}
}

func printStats(res *atgis.Result) {
	st := res.Stats
	// Split overlaps processing, so the phases do not sum: wall time is
	// the total (Stats.Total).
	fmt.Printf("phases: split %v (overlapped), process %v, merge %v; wall %v (%d blocks, %d workers, %.1f MB/s)\n",
		st.SplitTime, st.ProcessTime, st.MergeTime, st.Total(), st.Blocks, st.Workers, st.ThroughputMBs())
	if res.Repaired > 0 || res.Reprocessed > 0 {
		fmt.Printf("repaired blocks: %d, reprocessed blocks: %d\n", res.Repaired, res.Reprocessed)
	}
}

// usage reports a bad command line and exits 2, as flag does.
func usage(msg string) {
	fmt.Fprintln(os.Stderr, msg)
	flag.Usage()
	os.Exit(2)
}

// fatal reports a failed run and exits 1. Engine errors already carry
// the "atgis:" prefix; others get it once.
func fatal(err error) {
	if err == nil {
		return
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, "atgis:") {
		msg = "atgis: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}
