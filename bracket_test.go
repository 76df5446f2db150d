package atgis

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"atgis/internal/geom"
	"atgis/internal/query"
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
