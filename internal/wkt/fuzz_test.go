package wkt

// FuzzWKTParseLine feeds arbitrary bytes to the tab-separated WKT line
// parser. Like the GeoJSON block parsers it runs directly over mmap'd
// user data inside worker goroutines, so the fuzz contract is strict
// no-panic: malformed lines must return an error, never crash. On top of
// that, the box the parser accumulates must be the built geometry's
// Bound() bit for bit, and the bounds-only parse — which builds nothing —
// must agree with the full parse on that box and on whether the line is
// an error. The bracket walk (Config.BracketReject) under a window taken
// from the input must agree with the exact parse under the same window
// (checkGated).

import (
	"math"
	"reflect"
	"testing"

	"atgis/internal/geojson"
	"atgis/internal/geom"
)

func sameBits(a, b geom.Box) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return eq(a.MinX, b.MinX) && eq(a.MinY, b.MinY) && eq(a.MaxX, b.MaxX) && eq(a.MaxY, b.MaxY)
}

// checkGated holds the bracket walk to the exact parse of line under win:
// the same error text, or the same feature, or else a bracket reject — no
// geometry, and a box that contains the exact box and misses win. It
// reports whether the line was bracket-rejected.
func checkGated(t *testing.T, line []byte, win geom.Box) (bracketRejected bool) {
	t.Helper()
	exact, err := ParseFeature(line, 7, &geojson.Config{Window: &win})
	gated, gatedErr := ParseFeature(line, 7, &geojson.Config{Window: &win, BracketReject: true})
	if (err == nil) != (gatedErr == nil) || err != nil && err.Error() != gatedErr.Error() {
		t.Fatalf("%q under %+v: exact parse: %v; gated parse: %v", line, win, err, gatedErr)
	}
	if err != nil {
		return false
	}
	if sameBits(exact.Box, gated.Box) {
		if !reflect.DeepEqual(exact, gated) {
			t.Fatalf("%q under %+v: exact parse %+v, gated parse %+v", line, win, exact, gated)
		}
		return false
	}
	if exact.Feature.ID != gated.Feature.ID || exact.Feature.Offset != gated.Feature.Offset ||
		exact.Feature.Geom != nil || gated.Feature.Geom != nil ||
		!gated.Box.ContainsBox(exact.Box) || gated.Box.Intersects(win) {
		t.Fatalf("%q under %+v: gated parse %+v is no bracket reject of the exact parse %+v", line, win, gated, exact)
	}
	return true
}

func FuzzWKTParseLine(f *testing.F) {
	f.Add([]byte("42\tPOINT (1 2)"))
	f.Add([]byte("7\tPOLYGON ((0 0, 1 0, 1 1, 0 0))"))
	f.Add([]byte("-3\tMULTIPOLYGON (((0 0, 2 0, 2 2, 0 0)))"))
	f.Add([]byte("1\tLINESTRING (0 0, 1 1, 2 0)"))
	f.Add([]byte("POINT (1 2)"))
	f.Add([]byte("9\tPOLYGON (("))
	f.Add([]byte("1\tPOINT (1e309 -1e309)"))
	f.Add([]byte("\t\t\t"))
	f.Add([]byte("2\tGEOMETRYCOLLECTION (POINT (1 2))"))
	f.Add([]byte("1\tPOINT (2 2) trailing junk"))
	f.Add([]byte("7\tPOINT (1 2)9\tPOINT (3 4)"))
	f.Add([]byte("7\tPOINT (1 2) \t\r"))
	f.Add([]byte("3\tPOLYGON ((0 0, 9 0, 9 9, 0 0), (-5 -5, 20 20, 2 3, -5 -5))"))
	f.Add([]byte("4\tGEOMETRYCOLLECTION (GEOMETRYCOLLECTION (POINT (-0 0)), MULTIPOLYGON (((0 -0, 1 0, 1 1, 0 -0))))"))

	f.Fuzz(func(t *testing.T, line []byte) {
		// The window: from the first four bytes, in quarter units,
		// somewhere in [-32, 32) and up to 64 wide.
		var w [4]byte
		copy(w[:], line)
		x, y := float64(int8(w[0]))/4, float64(int8(w[1]))/4
		checkGated(t, line, geom.Box{MinX: x, MinY: y, MaxX: x + float64(w[2])/4, MaxY: y + float64(w[3])/4})

		full, err := ParseLine(line, 0)
		bounds, boundsErr := ParseFeature(line, 0, &geojson.Config{BoundsOnly: true})
		if (err == nil) != (boundsErr == nil) {
			t.Fatalf("full parse: %v; bounds-only parse: %v", err, boundsErr)
		}
		if err != nil {
			return
		}
		if bounds.Feature.Geom != nil || !sameBits(bounds.Box, full.Geom.Bound()) {
			t.Fatalf("bounds-only parse: geometry %v, box %+v; Bound() = %+v", bounds.Feature.Geom, bounds.Box, full.Geom.Bound())
		}
	})
}
