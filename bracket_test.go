package atgis

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"atgis/internal/geom"
	"atgis/internal/query"
	"atgis/internal/synth"
)

// checkGateOnOff runs a containment of win over src with the bracket gate
// Prepare sets and with it cleared, and fails unless both give the same
// answer or the same error.
func checkGateOnOff(t *testing.T, eng *Engine, src Source, win geom.Box, opt Options, what string) {
	t.Helper()
	run := func(gate bool) string {
		spec := &query.Spec{Kind: query.Containment, Ref: win.AsPolygon(), Pred: query.PredIntersects, KeepMatches: true}
		pq, err := eng.Prepare(spec, opt)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !pq.cfg.BracketReject {
			t.Fatalf("%s: Prepare left the bracket gate off", what)
		}
		pq.cfg.BracketReject = gate
		res, err := pq.Execute(context.Background(), src)
		if err != nil {
			return "error: " + err.Error()
		}
		return renderQueryResult(res)
	}
	if on, off := run(true), run(false); on != off {
		t.Errorf("%s: the bracket gate changed the answer\non:\n%s\noff:\n%s", what, on, off)
	}
}

// TestBracketGateMalformed: the cold window reject on integer brackets
// (geojson.Config.BracketReject, set by Prepare) gives up on whatever it
// cannot certify, so malformed GeoJSON reaches the exact walk and the
// token path as before. Each malformed-feature class — a non-number
// coordinate, an unknown type, an overflowing number, a 2-position ring,
// NaN, and a Polygon nested 200 000 arrays deep — placed inside and far
// outside each window, must give the same Scanned, Count and matches
// (or the same error) in PAT and FAT, at small and default blocks, with
// the gate on and off.
func TestBracketGateMalformed(t *testing.T) {
	bad := map[string]func(at float64) string{
		"non-number": func(at float64) string {
			return fmt.Sprintf(`{"type":"Polygon","coordinates":[[[%[1]g,%[1]g],[%[2]g,"x"],[%[2]g,%[2]g],[%[1]g,%[1]g]]]}`, at, at+1)
		},
		"unknown type": func(at float64) string {
			return fmt.Sprintf(`{"type":"Polygonx","coordinates":[[[%[1]g,%[1]g],[%[2]g,%[1]g],[%[2]g,%[2]g],[%[1]g,%[1]g]]]}`, at, at+1)
		},
		"overflow": func(at float64) string {
			return fmt.Sprintf(`{"type":"Polygon","coordinates":[[[1e999,%[1]g],[%[2]g,%[1]g],[%[2]g,%[2]g],[1e999,%[1]g]]]}`, at, at+1)
		},
		"2-position ring": func(at float64) string {
			return fmt.Sprintf(`{"type":"Polygon","coordinates":[[[%[1]g,%[1]g],[%[2]g,%[1]g]]]}`, at, at+1)
		},
		"NaN": func(at float64) string {
			return fmt.Sprintf(`{"type":"Polygon","coordinates":[[[NaN,%[1]g],[%[2]g,%[1]g],[%[2]g,%[2]g],[%[1]g,%[1]g]]]}`, at, at+1)
		},
		"200000 deep": func(at float64) string {
			const depth = 200000
			return `{"type":"Polygon","coordinates":` + strings.Repeat("[", depth) +
				fmt.Sprintf("%g,%g", at+0.5, at+0.5) + strings.Repeat("]", depth) + `}`
		},
	}
	square := func(id int, at float64) string {
		return fmt.Sprintf(`{"type":"Feature","id":%d,"geometry":{"type":"Polygon","coordinates":[[[%[2]g,%[2]g],[%[3]g,%[2]g],[%[3]g,%[3]g],[%[2]g,%[3]g],[%[2]g,%[2]g]]]},"properties":{}}`,
			id, at, at+1)
	}
	windows := []geom.Box{
		{MinX: -10, MinY: -10, MaxX: 10, MaxY: 10},
		{MinX: 0.2, MinY: 0.2, MaxX: 0.8, MaxY: 0.8},
		{MinX: 49.7, MinY: 49.7, MaxX: 50.3, MaxY: 50.3},
		{MinX: 100, MinY: 100, MaxX: 110, MaxY: 110},
	}
	// blockFor is the small block size of a row: 64 bytes, but 64 KiB
	// for the 400 kB of the deep nesting, which would take over 6 000
	// blocks per run here (TestFATDeepNestingLinear runs it at 64 bytes).
	blockFor := func(name string) int {
		if name == "200000 deep" {
			return 64 << 10
		}
		return 64
	}
	eng := testEngine(t, 2)
	for name, geometry := range bad {
		for _, at := range []float64{0, 50} {
			doc := `{"type":"FeatureCollection","features":[` + square(1, 0) + "," +
				`{"type":"Feature","id":2,"geometry":` + geometry(at) + `,"properties":{}},` +
				square(3, 40.25) + "]}"
			src, err := FromBytes([]byte(doc), GeoJSON)
			if err != nil {
				t.Fatal(err)
			}
			for _, win := range windows {
				for _, mode := range []Mode{PAT, FAT} {
					for _, block := range []int{blockFor(name), 0} {
						what := fmt.Sprintf("%s at %g/window %v/%v/block %d", name, at, win, mode, block)
						checkGateOnOff(t, eng, src, win, Options{Mode: mode, BlockSize: block}, what)
					}
				}
			}
		}
	}
}

// TestBracketGateMalformedWKT is TestBracketGateMalformed for WKT, where
// the bracket walk gives up on every grammar error and leaves the line to
// the exact walk: each malformed line — a non-number coordinate, an
// unknown type, an overflowing number, a 2-position ring, a malformed
// number, trailing bytes and a missing ')' — placed inside and far
// outside each window, must give the same Scanned, Count and matches (or
// the same error text) at 64-byte and default blocks, with the gate on
// and off.
func TestBracketGateMalformedWKT(t *testing.T) {
	bad := map[string]func(at float64) string{
		"non-number": func(at float64) string {
			return fmt.Sprintf("POLYGON ((%[1]g %[1]g, %[2]g x, %[2]g %[2]g, %[1]g %[1]g))", at, at+1)
		},
		"unknown type": func(at float64) string {
			return fmt.Sprintf("POLYGONX ((%[1]g %[1]g, %[2]g %[1]g, %[2]g %[2]g, %[1]g %[1]g))", at, at+1)
		},
		"overflow": func(at float64) string {
			return fmt.Sprintf("POLYGON ((1e999 %[1]g, %[2]g %[1]g, %[2]g %[2]g, 1e999 %[1]g))", at, at+1)
		},
		"2-position ring":  func(at float64) string { return fmt.Sprintf("POLYGON ((%[1]g %[1]g, %[2]g %[1]g))", at, at+1) },
		"malformed number": func(at float64) string { return fmt.Sprintf("LINESTRING (%[1]g %[1]g, %[2]g %[2]g-3)", at, at+1) },
		"trailing bytes":   func(at float64) string { return fmt.Sprintf("POINT (%[1]g %[1]g) junk", at+0.5) },
		"missing )": func(at float64) string {
			return fmt.Sprintf("POLYGON ((%[1]g %[1]g, %[2]g %[1]g, %[2]g %[2]g, %[1]g %[1]g)", at, at+1)
		},
	}
	square := func(id int, at float64) string {
		return fmt.Sprintf("%d\tPOLYGON ((%[2]g %[2]g, %[3]g %[2]g, %[3]g %[3]g, %[2]g %[3]g, %[2]g %[2]g))\n", id, at, at+1)
	}
	windows := []geom.Box{
		{MinX: -10, MinY: -10, MaxX: 10, MaxY: 10},
		{MinX: 0.2, MinY: 0.2, MaxX: 0.8, MaxY: 0.8},
		{MinX: 49.7, MinY: 49.7, MaxX: 50.3, MaxY: 50.3},
		{MinX: 100, MinY: 100, MaxX: 110, MaxY: 110},
	}
	eng := testEngine(t, 2)
	for name, geometry := range bad {
		for _, at := range []float64{0, 50} {
			doc := square(1, 0) + "2\t" + geometry(at) + "\n" + square(3, 40.25)
			src, err := FromBytes([]byte(doc), WKT)
			if err != nil {
				t.Fatal(err)
			}
			for _, win := range windows {
				for _, block := range []int{64, 0} {
					checkGateOnOff(t, eng, src, win, Options{BlockSize: block}, fmt.Sprintf("%s at %g/window %v/block %d", name, at, win, block))
				}
			}
		}
	}
}

// TestBracketGateMalformedOSM is TestBracketGateMalformed for OSM XML,
// where pass 1 leaves a canonical node whose 1° cell misses the window
// bracketed, and pass 2 rejects a way or relation on its nodes' cells or
// reads them exactly. Each row — node values the bracket cannot certify
// or FloatExact refuses, node markup off the canonical form, a way
// across a window's edge, dangling references, and out-of-order
// duplicate ids, which take the node table's sort — placed inside and
// far outside each window, must give the same Scanned, Count and matches
// (or the same error text) at 64-byte and default blocks, with the gate
// on and off. So must a file whose every node lies in one integer cell.
func TestBracketGateMalformedOSM(t *testing.T) {
	type elems struct{ nodes, ways, rels string }
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	node := func(id int, lat, lon string) string {
		return fmt.Sprintf(" <node id=\"%d\" lat=\"%s\" lon=\"%s\"/>\n", id, lat, lon)
	}
	way := func(id int, refs ...int) string {
		s := fmt.Sprintf(" <way id=\"%d\">\n", id)
		for _, r := range refs {
			s += fmt.Sprintf("  <nd ref=\"%d\"/>\n", r)
		}
		return s + " </way>\n"
	}
	relation := func(id int, members ...string) string {
		return fmt.Sprintf(" <relation id=\"%d\">\n%s </relation>\n", id, strings.Join(members, ""))
	}
	member := func(ref int, role string) string {
		return fmt.Sprintf("  <member type=\"way\" ref=\"%d\" role=\"%s\"/>\n", ref, role)
	}
	// square is way id around nodes base…base+3 of a unit square at
	// (at, at), its first node's line given.
	square := func(id, base int, at float64, first string) elems {
		return elems{
			nodes: first + node(base+1, g(at), g(at+1)) + node(base+2, g(at+1), g(at+1)) + node(base+3, g(at+1), g(at)),
			ways:  way(id, base, base+1, base+2, base+3, base),
		}
	}
	plain := func(at float64) elems { return square(2, 21, at, node(21, g(at), g(at))) }
	withNode := func(line string) func(at float64) elems {
		return func(at float64) elems { return square(2, 21, at, fmt.Sprintf(line, g(at))) }
	}
	bad := map[string]func(at float64) elems{
		"lat 1x":         withNode(" <node id=\"21\" lat=\"1x\" lon=\"%s\"/>\n"),
		"lon 1x":         withNode(" <node id=\"21\" lat=\"%[1]s\" lon=\"%[1]sx\"/>\n"),
		"value 1e999":    withNode(" <node id=\"21\" lat=\"%s\" lon=\"1e999\"/>\n"),
		"value +1":       withNode(" <node id=\"21\" lat=\"+%[1]s\" lon=\"+%[1]s\"/>\n"),
		"value .5":       withNode(" <node id=\"21\" lat=\".5\" lon=\"%s\"/>\n"),
		"16-digit value": func(at float64) elems { return square(2, 21, at, node(21, fmt.Sprintf("%016d.25", int(at)), g(at))) },
		"underflow":      withNode(" <node id=\"21\" lat=\"0." + strings.Repeat("0", 400) + "1\" lon=\"%s\"/>\n"),
		"single quotes":  withNode(" <node id='21' lat='%[1]s' lon='%[1]s'/>\n"),
		"version first":  withNode(" <node version=\"2\" id=\"21\" lat=\"%[1]s\" lon=\"%[1]s\"/>\n"),
		"lon first":      withNode(" <node id=\"21\" lon=\"%[1]s.5\" lat=\"%[1]s\"/>\n"),
		"extras after":   withNode(" <node id=\"21\" lat=\"%[1]s\" lon=\"%[1]s\" version=\"2\" lat=\"99\"/>\n"),
		"across an edge": func(at float64) elems {
			return elems{
				nodes: node(21, g(at+0.1), g(at+0.1)) + node(22, g(at+0.5), g(at+0.5)) + node(23, g(at+11), g(at+11)),
				ways:  way(2, 21, 22, 23),
			}
		},
		// Each way crosses a window on which no node's cell touches, and
		// the box of its cells' low corners misses it. The first node,
		// far off, keeps the next one bracketed.
		"across a window, no node near": func(at float64) elems {
			return elems{
				nodes: node(29, g(at+30), g(at+30)) +
					node(21, g(at-1.5), g(at+0.5)) + node(22, g(at+2.5), g(at+0.5)) +
					node(23, g(at-1.5), g(at-0.1)) + node(24, g(at+2.5), g(at-0.1)),
				ways: way(2, 21, 22) + way(6, 23, 24),
			}
		},
		"missing node": func(at float64) elems {
			e := plain(at)
			e.ways = way(2, 21, 22, 23, 25)
			return e
		},
		"relation": func(at float64) elems {
			e, hole := plain(at), square(5, 51, at+0.25, node(51, g(at+0.25), g(at+0.25)))
			e.nodes += hole.nodes
			e.ways += hole.ways
			e.rels = relation(1, member(2, "outer"), member(5, "inner"))
			return e
		},
		"relation, missing way": func(at float64) elems {
			e := plain(at)
			e.rels = relation(1, member(2, "outer"), member(99, "outer"))
			return e
		},
		"relation, inner only": func(at float64) elems {
			e := plain(at)
			e.rels = relation(1, member(2, "inner"))
			return e
		},
		"duplicate ids out of order": func(at float64) elems {
			e := plain(at)
			lines := strings.SplitAfter(e.nodes, "\n")
			slices.Reverse(lines)
			e.nodes = strings.Join(lines, "") + node(22, g(at+0.5), g(at+0.5))
			return e
		},
	}
	windows := []geom.Box{
		{MinX: -10, MinY: -10, MaxX: 10, MaxY: 10},
		{MinX: 0.2, MinY: 0.2, MaxX: 0.8, MaxY: 0.8},
		{MinX: 49.7, MinY: 49.7, MaxX: 50.3, MaxY: 50.3},
		{MinX: 100, MinY: 100, MaxX: 110, MaxY: 110},
	}
	const header = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<osm version=\"0.6\">\n"
	eng := testEngine(t, 2)
	for name, row := range bad {
		for _, at := range []float64{0, 50} {
			first, mid, last := square(1, 11, 0, node(11, "0", "0")), row(at), square(3, 31, 40.25, node(31, "40.25", "40.25"))
			doc := header + first.nodes + mid.nodes + last.nodes + first.ways + mid.ways + last.ways + mid.rels + "</osm>\n"
			src, err := FromBytes([]byte(doc), OSMXML)
			if err != nil {
				t.Fatal(err)
			}
			for _, win := range windows {
				for _, block := range []int{64, 0} {
					checkGateOnOff(t, eng, src, win, Options{BlockSize: block}, fmt.Sprintf("%s at %g/window %v/block %d", name, at, win, block))
				}
			}
		}
	}

	// City extent: the generator's world squeezed into the one integer
	// cell [-74, -73] × [40, 41], where every node's cell meets every
	// window inside it and pass 1 brackets only to convert at once.
	var buf bytes.Buffer
	if err := synth.New(synth.Config{Seed: 1, N: 300, MeanEdges: 8, MultiPolyFrac: 0.15, LineFrac: 0.15}).WriteOSMXML(&buf); err != nil {
		t.Fatal(err)
	}
	city := cityExtent(t, buf.Bytes(), OSMXML)
	src, err := FromBytes(city, OSMXML)
	if err != nil {
		t.Fatal(err)
	}
	cityBox := geom.Box{MinX: -73.68, MinY: 40.415, MaxX: -73.32, MaxY: 40.585}
	for _, win := range []geom.Box{query.ScaleBox(cityBox, 0.05), query.ScaleBox(cityBox, 0.5), {MinX: -72.5, MinY: 40.2, MaxX: -72.2, MaxY: 40.4}} {
		for _, block := range []int{4 << 10, 0} {
			checkGateOnOff(t, eng, src, win, Options{BlockSize: block}, fmt.Sprintf("city extent/window %v/block %d", win, block))
		}
	}
}

// TestBracketGateCityExtent is the city-extent row of
// TestBracketGateMalformedOSM for GeoJSON and WKT: every position of the
// generator's world moved into one integer cell, so under a window inside
// that cell every feature's bracket walk gives up at its first position
// and hands over to the exact walk, and under a window beside it every
// feature is rejected on its brackets. Both must answer as the exact walk
// does, in every GeoJSON mode and at small and default blocks.
func TestBracketGateCityExtent(t *testing.T) {
	gen := synth.New(synth.Config{Seed: 1, N: 300, MeanEdges: 8, MultiPolyFrac: 0.15, LineFrac: 0.15})
	cityBox := geom.Box{MinX: -73.68, MinY: 40.415, MaxX: -73.32, MaxY: 40.585}
	eng := testEngine(t, 2)
	for _, f := range []struct {
		format Format
		write  func(io.Writer) error
		modes  []Mode
	}{
		{GeoJSON, gen.WriteGeoJSON, []Mode{PAT, FAT}},
		{WKT, gen.WriteWKT, []Mode{PAT}},
	} {
		var buf bytes.Buffer
		if err := f.write(&buf); err != nil {
			t.Fatal(err)
		}
		src, err := FromBytes(cityExtent(t, buf.Bytes(), f.format), f.format)
		if err != nil {
			t.Fatal(err)
		}
		cell := geom.Box{MinX: -74, MinY: 40, MaxX: -73, MaxY: 41}
		res, err := eng.Query(context.Background(), src, &query.Spec{Kind: query.Containment, Ref: cell.AsPolygon(), Pred: query.PredWithin}, Options{})
		if err != nil || res.Res.Count != 300 {
			t.Fatalf("%v: not all 300 features lie in the cell %v: %+v, %v", f.format, cell, res, err)
		}
		for _, win := range []geom.Box{query.ScaleBox(cityBox, 0.05), query.ScaleBox(cityBox, 0.5), {MinX: -72.5, MinY: 40.2, MaxX: -72.2, MaxY: 40.4}} {
			for _, mode := range f.modes {
				for _, block := range []int{4 << 10, 0} {
					checkGateOnOff(t, eng, src, win, Options{Mode: mode, BlockSize: block},
						fmt.Sprintf("%v city extent/window %v/%v/block %d", f.format, win, mode, block))
				}
			}
		}
	}
}

// cityExtent moves every position of a document in format f, generated
// over synth.Extent, into one integer cell: x′ = −73.5 + 0.001·x, y′ =
// 40.5 + 0.001·y, a 0.36° × 0.17° extent.
func cityExtent(t *testing.T, doc []byte, f Format) []byte {
	t.Helper()
	// How each format writes a position, X and Y standing for its numbers.
	layout := map[Format]string{GeoJSON: `[X, Y]`, WKT: `X Y`, OSMXML: `lat="Y" lon="X"`}[f]
	const num = `-?[0-9][0-9.e+-]*`
	re := regexp.MustCompile(strings.NewReplacer("X", "(?P<x>"+num+")", "Y", "(?P<y>"+num+")").Replace(regexp.QuoteMeta(layout)))
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	moved := 0
	out := re.ReplaceAllFunc(doc, func(m []byte) []byte {
		sub := re.FindSubmatch(m)
		x, err1 := strconv.ParseFloat(string(sub[re.SubexpIndex("x")]), 64)
		y, err2 := strconv.ParseFloat(string(sub[re.SubexpIndex("y")]), 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("generated position %s", m)
		}
		moved++
		return []byte(strings.NewReplacer("X", g(-73.5+0.001*x), "Y", g(40.5+0.001*y)).Replace(layout))
	})
	if moved == 0 {
		t.Fatalf("no %v position to move", f)
	}
	return out
}
