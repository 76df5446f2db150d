package wkt

import (
	"bytes"
	"math/rand"
	"testing"

	"atgis/internal/geojson"
	"atgis/internal/geom"
)

func TestParseGeometryKinds(t *testing.T) {
	tests := []struct {
		in   string
		typ  geom.GeomType
		pts  int
		bbox geom.Box
	}{
		{"POINT (1 2)", geom.TypePoint, 1, geom.Box{MinX: 1, MinY: 2, MaxX: 1, MaxY: 2}},
		{"LINESTRING (0 0, 1 1, 2 0)", geom.TypeLineString, 3, geom.Box{MinX: 0, MinY: 0, MaxX: 2, MaxY: 1}},
		{"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))", geom.TypePolygon, 5, geom.Box{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4}},
		{"POLYGON ((0 0, 9 0, 9 9, 0 9, 0 0), (2 2, 3 2, 3 3, 2 3, 2 2))",
			geom.TypePolygon, 10, geom.Box{MinX: 0, MinY: 0, MaxX: 9, MaxY: 9}},
		{"MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)), ((5 5, 6 5, 6 6, 5 5)))",
			geom.TypeMultiPolygon, 8, geom.Box{MinX: 0, MinY: 0, MaxX: 6, MaxY: 6}},
		{"GEOMETRYCOLLECTION (POINT (3 4), LINESTRING (0 0, 1 1))",
			geom.TypeCollection, 3, geom.Box{MinX: 0, MinY: 0, MaxX: 3, MaxY: 4}},
	}
	for _, tc := range tests {
		t.Run(tc.in[:min(12, len(tc.in))], func(t *testing.T) {
			f, err := ParseLine([]byte(tc.in), 0)
			if err != nil {
				t.Fatal(err)
			}
			g := f.Geom
			if g.Type() != tc.typ {
				t.Errorf("type = %v, want %v", g.Type(), tc.typ)
			}
			if g.NumPoints() != tc.pts {
				t.Errorf("points = %d, want %d", g.NumPoints(), tc.pts)
			}
			if g.Bound() != tc.bbox {
				t.Errorf("bound = %+v, want %+v", g.Bound(), tc.bbox)
			}
		})
	}
}

func TestParseGeometryErrors(t *testing.T) {
	bad := []string{
		"", "CIRCLE (1 2)", "POINT 1 2", "POLYGON ((1 2, 3)",
		"LINESTRING (a b)", "POLYGON (())",
	}
	for _, in := range bad {
		if _, err := ParseLine([]byte(in), 0); err == nil {
			t.Errorf("no error for %q", in)
		}
	}
}

func TestParseLine(t *testing.T) {
	f, err := ParseLine([]byte("42\tPOINT (1.5 -2.5)"), 100)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != 42 || f.Offset != 100 {
		t.Errorf("id/offset = %d/%d", f.ID, f.Offset)
	}
	if f.Geom.Type() != geom.TypePoint {
		t.Errorf("type = %v", f.Geom.Type())
	}
	if _, err := ParseLine([]byte("x\tPOINT (1 2)"), 0); err == nil {
		t.Error("no error for missing id")
	}
	// Negative ids are allowed (OSM relations use them in some dumps).
	f, err = ParseLine([]byte("-7\tPOINT (0 0)"), 0)
	if err != nil || f.ID != -7 {
		t.Errorf("negative id = %d err %v", f.ID, err)
	}
}

func TestWriterRoundTrip(t *testing.T) {
	feats := []geom.Feature{
		{ID: 1, Geom: geom.Polygon{{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 3}, {X: 0, Y: 3}, {X: 0, Y: 0}}}},
		{ID: 2, Geom: geom.LineString{{X: 1.25, Y: -2.5}, {X: 2.5, Y: 3.75}}},
		{ID: 3, Geom: geom.MultiPolygon{
			{{{X: 10, Y: 10}, {X: 12, Y: 10}, {X: 12, Y: 12}, {X: 10, Y: 10}}},
			{{{X: 20, Y: 20}, {X: 22, Y: 20}, {X: 22, Y: 22}, {X: 20, Y: 20}}},
		}},
		{ID: 4, Geom: geom.PointGeom{P: geom.Point{X: -77.5, Y: 38.25}}},
		{ID: 5, Geom: geom.Collection{
			geom.PointGeom{P: geom.Point{X: 9, Y: 9}},
			geom.LineString{{X: 0, Y: 0}, {X: 1, Y: 1}},
		}},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := range feats {
		w.WriteFeature(&feats[i])
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var got []geom.Feature
	err := EachLine(buf.Bytes(), 0, int64(buf.Len()), func(line []byte, off int64) error {
		f, err := ParseLine(line, off)
		if err != nil {
			return err
		}
		got = append(got, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(feats) {
		t.Fatalf("parsed %d, want %d", len(got), len(feats))
	}
	for i := range got {
		if got[i].ID != feats[i].ID {
			t.Errorf("feature %d: id %d, want %d", i, got[i].ID, feats[i].ID)
		}
		if got[i].Geom.Type() != feats[i].Geom.Type() {
			t.Errorf("feature %d: type %v, want %v", i, got[i].Geom.Type(), feats[i].Geom.Type())
		}
		if got[i].Geom.NumPoints() != feats[i].Geom.NumPoints() {
			t.Errorf("feature %d: points %d, want %d",
				i, got[i].Geom.NumPoints(), feats[i].Geom.NumPoints())
		}
		if got[i].Geom.Bound() != feats[i].Geom.Bound() {
			t.Errorf("feature %d: bound %+v, want %+v",
				i, got[i].Geom.Bound(), feats[i].Geom.Bound())
		}
	}
}

func TestSplitLinesInvariance(t *testing.T) {
	// Any block size must yield the same set of parsed lines.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		f := geom.Feature{ID: int64(i), Geom: geom.PointGeom{P: geom.Point{X: rng.Float64(), Y: rng.Float64()}}}
		w.WriteFeature(&f)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	input := buf.Bytes()

	countAll := func(cuts []int64) int {
		total := 0
		prev := int64(0)
		for _, c := range append(cuts, int64(len(input))) {
			if c <= prev {
				continue
			}
			EachLine(input, prev, c, func(line []byte, off int64) error {
				total++
				return nil
			})
			prev = c
		}
		return total
	}
	want := countAll(nil)
	if want != 50 {
		t.Fatalf("sequential lines = %d, want 50", want)
	}
	for _, bs := range []int{8, 64, 100, 1000, 1 << 20} {
		var cuts []int64
		SplitLinesStream(input, bs, func(cut int64) bool { cuts = append(cuts, cut); return true })
		// Cuts must fall on line starts.
		for _, c := range cuts {
			if c > 0 && input[c-1] != '\n' {
				t.Fatalf("block size %d: cut %d not at line start", bs, c)
			}
		}
		if got := countAll(cuts); got != want {
			t.Fatalf("block size %d: lines = %d, want %d", bs, got, want)
		}
	}
}

// TestMalformedNumberRejected: a corrupt token like "2-3" must error,
// not silently parse as two adjacent numbers.
func TestMalformedNumberRejected(t *testing.T) {
	if _, err := ParseLine([]byte("LINESTRING (0 1, 2-3)"), 0); err == nil {
		t.Error("corrupt token 2-3 should be rejected")
	}
	if _, err := ParseLine([]byte("LINESTRING (0 1, 2 3)"), 0); err != nil {
		t.Errorf("valid linestring rejected: %v", err)
	}
}

// TestTrailingBytesRejected: nothing but blanks and one carriage return
// may follow the geometry, so a lost newline is an error, not a silently
// dropped record.
func TestTrailingBytesRejected(t *testing.T) {
	for _, tc := range []struct {
		line string
		ok   bool
	}{
		{"1\tPOINT (2 2)", true},
		{"1\tPOINT (2 2) \t ", true},
		{"1\tPOINT (2 2)\r", true},
		{"1\tPOINT (2 2) \t\r", true},
		{"POLYGON ((0 0, 1 0, 1 1, 0 0))\r", true},
		{"1\tPOINT (2 2) trailing junk", false},
		{"7\tPOINT (1 2)9\tPOINT (3 4)", false},
		{"7\tLINESTRING (0 0, 1 1))", false},
		{"POINT (1 2) POINT (3 4)", false},
		{"1\tPOINT (2 2)\r\r", false},
		{"1\tPOINT (2 2)\r ", false},
		{"1\tPOINT (2 2)\n", false},
	} {
		_, err := ParseLine([]byte(tc.line), 0)
		if (err == nil) != tc.ok {
			t.Errorf("%q: err = %v, want ok = %v", tc.line, err, tc.ok)
		}
	}
}

// TestParseFeatureContract: ID, Offset and Box always; the geometry and
// the evaluation only for a feature the config does not reject.
func TestParseFeatureContract(t *testing.T) {
	line := []byte("9\tPOLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 2 1, 2 2, 1 1))")
	box := geom.Box{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4}
	hit, miss := geom.Box{MinX: 3, MinY: 3, MaxX: 9, MaxY: 9}, geom.Box{MinX: 5, MinY: 5, MaxX: 9, MaxY: 9}
	evals := 0
	eval := func(f *geom.Feature, b geom.Box) any {
		evals++
		if f.ID != 9 || f.Offset != 70 || b != box || f.Geom.NumPoints() != 9 {
			t.Errorf("EvalBox saw %+v, box %+v", f, b)
		}
		return "val"
	}
	for _, tc := range []struct {
		name  string
		cfg   geojson.Config
		built bool
	}{
		{"plain", geojson.Config{EvalBox: eval}, true},
		{"window hit", geojson.Config{EvalBox: eval, Window: &hit}, true},
		{"window miss", geojson.Config{EvalBox: eval, Window: &miss}, false},
		{"bounds only", geojson.Config{EvalBox: eval, BoundsOnly: true}, false},
	} {
		evals = 0
		out, err := ParseFeature(line, 70, &tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if out.Feature.ID != 9 || out.Feature.Offset != 70 || out.Box != box {
			t.Errorf("%s: id/offset/box = %d/%d/%+v", tc.name, out.Feature.ID, out.Feature.Offset, out.Box)
		}
		if (out.Feature.Geom != nil) != tc.built || (out.Val != nil) != tc.built || (evals == 1) != tc.built {
			t.Errorf("%s: geometry %v, value %v, %d evaluations; want built = %v", tc.name, out.Feature.Geom, out.Val, evals, tc.built)
		}
	}
}

// TestRejectedWKTLineAllocatesNothing: a line whose box misses the window,
// and any line of a bounds-only pass, is scanned in the parser's scratch
// buffers and costs no allocation once they have grown. (On a parser of
// the test's own: under the race detector the pool drops parsers at
// random.)
func TestRejectedWKTLineAllocatesNothing(t *testing.T) {
	lines := [][]byte{
		[]byte("1\tPOINT (1 2)"),
		[]byte("2\tLINESTRING (0 0, 1 1, 2 0)"),
		[]byte("3\tPOLYGON ((0 0, 9 0, 9 9, 0 9, 0 0), (2 2, 3 2, 3 3, 2 3, 2 2))"),
		[]byte("4\tMULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)), ((5 5, 6 5, 6 6, 5 5)))"),
		[]byte("5\tGEOMETRYCOLLECTION (POINT (3 4), LINESTRING (0 0, 1 1))"),
	}
	far := geom.Box{MinX: 100, MinY: 100, MaxX: 101, MaxY: 101}
	eval := func(*geom.Feature, geom.Box) any { return 1 }
	for name, cfg := range map[string]*geojson.Config{
		"window":      {Window: &far, EvalBox: eval},
		"bounds only": {BoundsOnly: true, EvalBox: eval},
	} {
		p := new(parser)
		allocs := testing.AllocsPerRun(100, func() {
			for _, line := range lines {
				out, err := p.feature(line, 0, cfg)
				if err != nil || out.Feature.Geom != nil || out.Box.IsEmpty() {
					t.Fatalf("%s: %q: %+v, %v", name, line, out, err)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s: rejected lines allocate %v objects per run, want 0", name, allocs)
		}
	}
}
