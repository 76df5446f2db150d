package geojson

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"atgis/internal/geom"
)

// The fused coordinate scanner must be invisible: for any input, any
// block plan and any Config, a machine that may take the fused path
// yields exactly what the token path (Config.tokenOnly) yields — the
// same features in the same order with the same float bit patterns,
// offsets and boxes, the same IncompleteOff/Clean per PAT block and the
// same repair count.

// hostileCoords are "coordinates" values chosen to sit on both sides of
// every rule by which the scanner accepts a value or hands it back.
var hostileCoords = []string{
	// regular shapes, all four depths
	`[1,2]`, `[102.5,-0.25,17]`, `[[0,0],[1,1],[2,0]]`,
	`[[[0,0],[4,0],[4,3],[0,3],[0,0]]]`,
	`[[[0,0],[9,0],[9,9],[0,0]],[[20,20],[30,20],[30,30],[20,20]]]`, // a "hole" outside the outer ring
	`[[[[10,10],[12,10],[12,12],[10,10]]],[[[-20,-20],[-2,-20],[-2,-2],[-20,-20]],[[-9,-9],[-8,-9],[-8,-8],[-9,-9]]]]`,
	// whitespace, CRLF
	"[ 1 ,\t2 ]", "[\r\n [ 1.5 ,\r\n 2.5 ]\r\n,\r\n[ 3 , 4 ]\r\n]", "[[1,2]\n,[3,4]\n]",
	// numbers: exponents, denormals, overflow, overlong digits, signs, signed zeros
	`[[1e2,-2.5E-3],[1E+2,2e0]]`, `[[1e400,-1e400],[0,0]]`,
	`[[4.9e-324,2.2250738585072011e-308],[1e-400,0.1]]`,
	`[[123456789012345678901234567890.5,0.000000000000000000000000000000123456789012345678901]]`,
	`[[0000000000000000000001.50,00.25]]`, `[[59.44483515847949,-10.58858817821337],[179.99999999999997,-89.99999999999999]]`,
	`[[+1,.5],[-.5,+.25]]`, `[[-0,0],[0,-0]]`, `[[0,0],[-0,-0]]`, `[[0.0,-0.0],[-0.0,0.0]]`,
	// 3-D and short positions, empty arrays
	`[[1,2,3],[4,5,6]]`, `[[[1,2,3,4,5],[6,7,8,9,10],[1,2,3,4,5]]]`, `[1]`, `[]`, `[[]]`, `[[1]]`, `[[1,2],[3]]`,
	`[[1,2],[]]`, `[[],[1,2]]`, `[[[1,2],[3,4]],[]]`, `[[[]]]`,
	// mixed number/array levels, uneven depth, too deep
	`[[1,2],3]`, `[1,[2,3]]`, `[1,2,[3,4]]`, `[[1,2],[[3,4],[5,6]]]`, `[[[1,2],[3,4]],[5,6]]`,
	`[[[[[1,2],[3,4],[1,2]]]]]`, `[[[[[[1,2]]]]]]`,
	// things that are not numbers or arrays
	`["a",1]`, `[[1,2],"x"]`, `[{"x":1},2]`, `[[1,2],{"coordinates":[9,9]}]`, `[null,1]`, `[[1,2],null]`,
	`[true,false]`, `[[1,2],[3,"4"]]`, `"POINT(1 2)"`, `{"0":1,"1":2}`, `null`, `7`,
	// broken separators and numbers
	`[[1,2],[3,4],]`, `[1,,2]`, `[,1,2]`, `[1 2]`, `[[1,2] [3,4]]`, `[[1,2],,[3,4]]`, `[-]`, `[-,2]`, `[1e,2]`,
	`[1.5abc,2]`, `[[1,2],[3,4]x]`, `[1.,2]`, `[1..2,3]`, `[0x10,2]`, `[NaN,1]`, `[Infinity,1]`,
}

// breakingCoords unbalance the document: the machine fails at them and
// ignores the rest, so each gets a document of its own.
var breakingCoords = []string{`[1,2]]`, `[[1,2]`, `[[1,2]}`, `[[1,2}]`, `[[[0,0],[1,1]]]]]`}

// hostileDoc builds one FeatureCollection exercising every hostile
// coordinates value under every relevant geometry type, with the type
// before and after the coordinates, inside GeometryCollections, with
// duplicate members.
func hostileDoc(coords ...string) []byte {
	if len(coords) == 0 {
		coords = hostileCoords
	}
	var sb strings.Builder
	sb.WriteString("{\"type\": \"FeatureCollection\",\r\n\"features\": [\n")
	id := 0
	feature := func(geometry string) {
		if id > 0 {
			sb.WriteString(",\n")
		}
		id++
		fmt.Fprintf(&sb, `{"type": "Feature", "id": %d, "geometry": %s, "properties": {"name": "f%d", "note": "]}[{ \"type\": \"Feature\" \\"}}`, id, geometry, id)
	}
	types := []string{"Point", "LineString", "Polygon", "MultiPolygon", "MultiPoint", ""}
	for _, c := range coords {
		for _, typ := range types {
			if typ == "" {
				feature(fmt.Sprintf(`{"coordinates": %s}`, c))
				continue
			}
			feature(fmt.Sprintf(`{"type": %q, "coordinates": %s}`, typ, c))
			feature(fmt.Sprintf(`{"coordinates": %s, "type": %q}`, c, typ))
		}
		// A collection member, a nested one, and a duplicate member whose
		// second value goes down the other path.
		feature(fmt.Sprintf(`{"type": "GeometryCollection", "geometries": [{"type": "LineString", "coordinates": [[1,1],[2,2]]}, {"type": "Polygon", "coordinates": %s}]}`, c))
		feature(fmt.Sprintf(`{"type": "GeometryCollection", "geometries": [{"type": "GeometryCollection", "geometries": [{"coordinates": %s}]}, {"type": "Point", "coordinates": [5,5]}]}`, c))
		feature(fmt.Sprintf(`{"type": "LineString", "coordinates": %s, "coordinates": [[7,7],[8,8]]}`, c))
		feature(fmt.Sprintf(`{"type": "LineString", "coordinates": [[7,7],[8,8]], "coordinates": %s}`, c))
	}
	feature(`null`)
	feature(`{"type": "GeometryCollection", "geometries": []}`)
	feature(`{"type": "GeometryCollection", "geometries": [{"type": "Point"}]}`)
	feature(`{"type": "Polygon", "geometries": [{"type": "Point", "coordinates": [1,2]}], "coordinates": [[[0,0],[1,0],[1,1],[0,0]]]}`)
	sb.WriteString("\r\n]}\n")
	return []byte(sb.String())
}

// renderGeom writes g with exact float bit patterns.
func renderGeom(sb *strings.Builder, g geom.Geometry) {
	if g == nil {
		sb.WriteString("nil")
		return
	}
	if c, ok := g.(geom.Collection); ok {
		sb.WriteString("Collection(")
		for _, m := range c {
			renderGeom(sb, m)
			sb.WriteByte(' ')
		}
		sb.WriteByte(')')
		return
	}
	fmt.Fprintf(sb, "%T:%d[", g, partCount(g))
	g.EachPoint(func(p geom.Point) bool {
		fmt.Fprintf(sb, "%x,%x ", math.Float64bits(p.X), math.Float64bits(p.Y))
		return true
	})
	// Ring and polygon structure: point counts per ring.
	switch t := g.(type) {
	case geom.Polygon:
		for _, r := range t {
			fmt.Fprintf(sb, "|%d", len(r))
		}
	case geom.MultiPolygon:
		for _, p := range t {
			sb.WriteString("|(")
			for _, r := range p {
				fmt.Fprintf(sb, "%d,", len(r))
			}
			sb.WriteByte(')')
		}
	}
	sb.WriteByte(']')
}

func partCount(g geom.Geometry) int {
	switch t := g.(type) {
	case geom.LineString:
		return len(t)
	case geom.Polygon:
		return len(t)
	case geom.MultiPolygon:
		return len(t)
	}
	return 1
}

func boxBits(b geom.Box) [4]uint64 {
	return [4]uint64{math.Float64bits(b.MinX), math.Float64bits(b.MinY), math.Float64bits(b.MaxX), math.Float64bits(b.MaxY)}
}

// renderOut renders everything a consumer can observe of one feature.
func renderOut(f FeatureOut) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "id=%d off=%d box=%x val=%v props=", f.Feature.ID, f.Feature.Offset, boxBits(f.Box), f.Val)
	keys := make([]string, 0, len(f.Feature.Properties))
	for k := range f.Feature.Properties {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "%q=%q,", k, f.Feature.Properties[k])
	}
	sb.WriteString(" geom=")
	renderGeom(&sb, f.Feature.Geom)
	return sb.String()
}

func renderAll(fs []FeatureOut) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = renderOut(f)
	}
	return out
}

func diffRendered(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d features, token path %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: feature %d\n fused %s\n token %s", what, i, got[i], want[i])
		}
	}
}

// diffConfigs returns the same extraction config twice: free to take the
// fused path, and held to the token path.
func diffConfigs(base Config) (fused, token *Config) {
	f, k := base, base
	k.tokenOnly = true
	return &f, &k
}

// diffBases are the extraction configurations the differential runs
// under: plain, with captured properties and an Eval, with a window that
// some boxes meet and some miss, and bounds-only.
func diffBases() map[string]Config {
	pointCount := func(f *geom.Feature) any {
		if f.Geom == nil {
			return -1
		}
		return f.Geom.NumPoints()
	}
	return map[string]Config{
		"plain":  {},
		"eval":   {PropKeys: []string{"name", "note"}, Eval: pointCount},
		"window": {PropKeys: []string{"name"}, Eval: pointCount, Window: &geom.Box{MinX: -1, MinY: -1, MaxX: 3, MaxY: 3}},
		"evalbox": {EvalBox: func(f *geom.Feature, b geom.Box) any { return fmt.Sprint(boxBits(b), f.Geom != nil) },
			Window: &geom.Box{MinX: 5, MinY: 5, MaxX: 25, MaxY: 25}},
		"bounds": {PropKeys: []string{"name"}, Eval: pointCount, BoundsOnly: true},
	}
}

// patRun parses doc as PAT blocks cut at cuts (cuts[0] ends the header)
// and folds them, returning the features, a per-block trace of
// IncompleteOff/Clean/feature count, and the repair count.
func patRun(doc []byte, cfg *Config, cuts []int64) (feats []FeatureOut, trace []string, repaired int, err error) {
	fold := NewPATFold(doc, cfg, func(f FeatureOut) { feats = append(feats, f) })
	fold.Header(cuts[0])
	for i, start := range cuts {
		end := int64(len(doc))
		if i+1 < len(cuts) {
			end = cuts[i+1]
		}
		br := ProcessBlockPAT(doc, start, end, cfg)
		trace = append(trace, fmt.Sprintf("[%d,%d) n=%d inc=%d clean=%v", start, end, len(br.Features), br.IncompleteOff, br.Clean))
		fold.Add(br)
	}
	err = fold.Finish(int64(len(doc)))
	return feats, trace, fold.Repaired, err
}

func diffPAT(t *testing.T, what string, doc []byte, base Config, cuts []int64) {
	t.Helper()
	fused, token := diffConfigs(base)
	gotF, gotTrace, gotRep, gotErr := patRun(doc, fused, cuts)
	wantF, wantTrace, wantRep, wantErr := patRun(doc, token, cuts)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v, token path %v", what, gotErr, wantErr)
	}
	if gotRep != wantRep {
		t.Fatalf("%s: repaired %d, token path %d", what, gotRep, wantRep)
	}
	for i := range wantTrace {
		if gotTrace[i] != wantTrace[i] {
			t.Fatalf("%s: block %s, token path %s", what, gotTrace[i], wantTrace[i])
		}
	}
	diffRendered(t, what, renderAll(gotF), renderAll(wantF))
}

func TestFusedEqualsTokenSequential(t *testing.T) {
	docs := [][]byte{hostileDoc()}
	for _, c := range breakingCoords {
		docs = append(docs, hostileDoc(c))
	}
	for d, doc := range docs {
		for name, base := range diffBases() {
			fused, token := diffConfigs(base)
			var got, want []FeatureOut
			errF := ParseSequential(doc, fused, func(f FeatureOut) { got = append(got, f) })
			errT := ParseSequential(doc, token, func(f FeatureOut) { want = append(want, f) })
			if fmt.Sprint(errF) != fmt.Sprint(errT) {
				t.Fatalf("doc %d %s: error %v, token path %v", d, name, errF, errT)
			}
			if d == 0 && (errT != nil || len(want) < 15*len(hostileCoords)) {
				t.Fatalf("%s: token path found %d features (err %v), the corpus has more", name, len(want), errT)
			}
			diffRendered(t, fmt.Sprintf("doc %d %s", d, name), renderAll(got), renderAll(want))
		}
	}
}

// TestFusedBoxIsGeometryBound pins the box the scanner accumulates on
// the fly to the built geometry's Bound, and the pushdown modes to the
// plain extraction: same boxes, geometry dropped exactly where promised.
func TestFusedBoxIsGeometryBound(t *testing.T) {
	doc := hostileDoc()
	plain := parseAll(t, doc, &Config{})
	scanned := 0
	for i, f := range plain {
		if boxBits(f.Box) != boxBits(f.Feature.Bound()) {
			t.Fatalf("feature %d: box %+v, geometry bound %+v\n%s", i, f.Box, f.Feature.Bound(), renderOut(f))
		}
		if !f.Box.IsEmpty() {
			scanned++
		}
	}
	if scanned < len(hostileCoords) {
		t.Fatalf("only %d features have a box", scanned)
	}
	win := geom.Box{MinX: -1, MinY: -1, MaxX: 3, MaxY: 3}
	windowed := parseAll(t, doc, &Config{Window: &win})
	bounds := parseAll(t, doc, &Config{BoundsOnly: true})
	if len(windowed) != len(plain) || len(bounds) != len(plain) {
		t.Fatalf("feature counts differ: plain %d window %d bounds %d", len(plain), len(windowed), len(bounds))
	}
	kept, dropped := 0, 0
	for i, f := range plain {
		w, b := windowed[i], bounds[i]
		if boxBits(w.Box) != boxBits(f.Box) || boxBits(b.Box) != boxBits(f.Box) ||
			w.Feature.ID != f.Feature.ID || b.Feature.Offset != f.Feature.Offset {
			t.Fatalf("feature %d: identity or box differs under pushdown", i)
		}
		if b.Feature.Geom != nil {
			t.Fatalf("feature %d: bounds-only built a geometry", i)
		}
		if f.Box.Intersects(win) {
			kept++
			if renderOut(w) != renderOut(f) {
				t.Fatalf("feature %d: window hit changed the feature\n got %s\nwant %s", i, renderOut(w), renderOut(f))
			}
		} else {
			dropped++
			if w.Feature.Geom != nil {
				t.Fatalf("feature %d: window miss built a geometry", i)
			}
		}
	}
	if kept == 0 || dropped == 0 {
		t.Fatalf("window must split the corpus: kept %d dropped %d", kept, dropped)
	}
}

func TestFusedEqualsTokenPATBlocks(t *testing.T) {
	doc := hostileDoc()
	for name, base := range diffBases() {
		// True boundaries, from one feature per block up.
		for _, minGap := range []int{1, 300, 4096, 1 << 20} {
			diffPAT(t, fmt.Sprintf("%s/minGap=%d", name, minGap), doc, base, FindFeatureBoundaries(doc, minGap))
		}
	}
	// Mis-splits: cuts at arbitrary bytes, so blocks start and end inside
	// arrays, numbers and strings and the fold repairs across them.
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 60; trial++ {
		cuts := []int64{FindFeatureBoundaries(doc, 1)[0]}
		for n := 1 + rng.Intn(10); n > 0; n-- {
			cuts = append(cuts, cuts[0]+int64(rng.Intn(len(doc)-int(cuts[0]))))
		}
		sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
		dedup := cuts[:1]
		for _, c := range cuts[1:] {
			if c > dedup[len(dedup)-1] {
				dedup = append(dedup, c)
			}
		}
		diffPAT(t, fmt.Sprintf("trial %d cuts %v", trial, dedup), doc, Config{PropKeys: []string{"name"}}, dedup)
	}
}

// TestFusedEqualsTokenEveryCut ends a block at every byte of a small
// document, a coordinates array included, and starts the next one there.
func TestFusedEqualsTokenEveryCut(t *testing.T) {
	doc := []byte(`{"type": "FeatureCollection", "features": [` +
		`{"type": "Feature", "id": 1, "geometry": {"type": "Polygon", "coordinates": [[[0.5, 1.25], [4, 0], [4, 3e0], [0.5, 1.25]], [[1, 1], [2, 1], [2, 2], [1, 1]]]}, "properties": {"name": "a"}},` +
		`{"type": "Feature", "id": 2, "geometry": {"type": "MultiPolygon", "coordinates": [[[[10, 10], [12, 10], [12, 12], [10, 10]]], [[[20, 20], [22, 20], [22, 22], [20, 20]]]]}, "properties": {"name": "b"}},` +
		`{"type": "Feature", "id": 3, "geometry": {"type": "Point", "coordinates": [7, 8]}, "properties": {"name": "c"}}` +
		`]}`)
	first := FindFeatureBoundaries(doc, 1)[0]
	for cut := first + 1; cut < int64(len(doc)); cut++ {
		diffPAT(t, fmt.Sprintf("cut %d", cut), doc, Config{PropKeys: []string{"name"}}, []int64{first, cut})
	}
	// The same through the FAT fold, whose reprocess fallback and merge
	// replay drive the resolved machine too.
	for name, base := range diffBases() {
		fused, token := diffConfigs(base)
		for cut := int64(1); cut < int64(len(doc)); cut += 7 {
			got, _, errF := runFAT(doc, fused, []int64{cut})
			want, _, errT := runFAT(doc, token, []int64{cut})
			if errF != nil || errT != nil {
				t.Fatalf("%s cut %d: %v / %v", name, cut, errF, errT)
			}
			diffRendered(t, fmt.Sprintf("FAT %s cut %d", name, cut), renderAll(got), renderAll(want))
		}
	}
}

// TestReparseFeatureMatchesSequential checks the pooled, fused
// ReparseFeature against the token-path oracle at every feature offset,
// that it stops at the feature's close, and that it still reports an
// offset with no feature.
func TestReparseFeatureMatchesSequential(t *testing.T) {
	doc := hostileDoc()
	want := parseAll(t, doc, &Config{tokenOnly: true})
	for i, f := range want {
		g, err := ReparseFeature(doc, f.Feature.Offset)
		if err != nil {
			t.Fatalf("feature %d at %d: %v", i, f.Feature.Offset, err)
		}
		var got, ref strings.Builder
		renderGeom(&got, g)
		renderGeom(&ref, f.Feature.Geom)
		if got.String() != ref.String() {
			t.Fatalf("feature %d at %d:\n got %s\nwant %s", i, f.Feature.Offset, got.String(), ref.String())
		}
	}
	// Stops at the close: garbage right after the object is never read.
	one := []byte(`{"type":"Feature","geometry":{"type":"Point","coordinates":[1,2]}}]]]}}}{"type":"Feature","geometry":{"type":"Point","coordinates":[3,4]}}`)
	g, err := ReparseFeature(one, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := g.(geom.PointGeom); !ok || p.P != (geom.Point{X: 1, Y: 2}) {
		t.Fatalf("got %#v, want the first feature's point", g)
	}
	for _, off := range []int64{-1, int64(len(doc)), int64(len(doc)) + 5, int64(len(doc)) - 2} {
		if _, err := ReparseFeature(doc, off); err == nil || !strings.Contains(err.Error(), "no feature at offset") {
			t.Errorf("offset %d: err = %v, want no feature at offset", off, err)
		}
	}
	// A value that is not an object holds no feature.
	if _, err := ReparseFeature([]byte(`[1,2] {"type":"Feature","geometry":{"type":"Point","coordinates":[3,4]}}`), 0); err == nil {
		t.Error("array at offset: want an error")
	}
}

func TestReparseFeatureAllocs(t *testing.T) {
	doc := buildDoc(t, testFeatures())
	off := FindFeatureBoundaries(doc, 1)[0]
	ReparseFeature(doc, off) // warm the machine pool
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := ReparseFeature(doc, off); err != nil {
			t.Fatal(err)
		}
	})
	// The polygon's positions, its ring list, the Polygon header boxed
	// into the interface: 3, the geometry and nothing per call besides.
	// The budget leaves room for the race detector, under which sync.Pool
	// drops machines at random; a fresh machine and closure per call, and
	// lexing on to the end of a 4 KiB chunk, cost 59 here.
	if allocs > 10 {
		t.Errorf("ReparseFeature allocates %.0f per call, budget 10", allocs)
	}
}

// TestUnescape covers every JSON escape, in member keys and in captured
// property values.
func TestUnescape(t *testing.T) {
	cases := []struct{ in, want string }{
		{`plain`, "plain"},
		{`q\"q`, `q"q`}, {`b\\b`, `b\b`}, {`s\/s`, "s/s"},
		{`\b`, "\b"}, {`\f`, "\f"}, {`\n`, "\n"}, {`\r`, "\r"}, {`\t`, "\t"},
		{`a\bb\ff`, "a\bb\ff"},
		{`\u00e9`, `\u00e9`}, {`x\u0041y`, `x\u0041y`}, // \uXXXX stays raw, as documented
		{`tail\`, `tail\`},
	}
	for _, tc := range cases {
		if got := unescape([]byte(tc.in)); got != tc.want {
			t.Errorf("unescape(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	// Keys: the filter names the decoded key. Values: captured decoded.
	doc := []byte(`{"type":"FeatureCollection","features":[{"type":"Feature","id":1,` +
		`"properties":{"k\bb":"v\bb","k\ff":"v\ff","k\nn":"v\nn","k\rr":"v\rr","k\tt":"v\tt","k\"q":"v\"q","k\\s":"v\\s","k\/l":"v\/l","k\u0041":"v\u0041"},` +
		`"geom\u0065try":{"type":"Point","coordinates":[1,2]},` +
		`"geometry":{"type":"Point","c\u006fordinates":[8,9],"coordinates":[3,4]}}]}`)
	want := map[string]string{
		"k\bb": "v\bb", "k\ff": "v\ff", "k\nn": "v\nn", "k\rr": "v\rr", "k\tt": "v\tt",
		`k"q`: `v"q`, `k\s`: `v\s`, "k/l": "v/l", `k\u0041`: `v\u0041`,
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	out := parseAll(t, doc, &Config{PropKeys: keys})
	if len(out) != 1 {
		t.Fatalf("features = %d, want 1", len(out))
	}
	for k, v := range want {
		if got, ok := out[0].Feature.Properties[k]; !ok || got != v {
			t.Errorf("property %q = %q (present %v), want %q", k, got, ok, v)
		}
	}
	// Raw \u keys are not grammar keywords: only the plain members count.
	if p, ok := out[0].Feature.Geom.(geom.PointGeom); !ok || p.P != (geom.Point{X: 3, Y: 4}) {
		t.Errorf("geometry = %#v, want the point of the plain members", out[0].Feature.Geom)
	}
}

// FuzzCoordScan feeds arbitrary bytes where a coordinates value goes and
// ends the first block at an arbitrary byte: the fused and token paths
// must agree on everything observable, sequentially and through PAT
// blocks and the repairing fold.
func FuzzCoordScan(f *testing.F) {
	for i, c := range hostileCoords {
		f.Add([]byte(c), uint16(i*7))
	}
	f.Add([]byte(`[[1,2],[3,4]]}, "properties": {}}, {"type": "Feature", "geometry": {"type": "Point", "coordinates": [1,2]`), uint16(90))
	f.Add([]byte("[[1,2],\n[3,4"), uint16(3))
	const head = `{"type": "FeatureCollection", "features": [{"type": "Feature", "id": 7, "geometry": {"type": "Polygon", "coordinates": `
	const tail = `}, "properties": {"name": "x"}}, {"type": "Feature", "id": 8, "geometry": {"coordinates": [[0,0],[1,1]], "type": "LineString"}}]}`
	first := int64(strings.Index(head, `{"type": "Feature"`))
	win := geom.Box{MinX: 0, MinY: 0, MaxX: 2, MaxY: 2}
	f.Fuzz(func(t *testing.T, coords []byte, cut uint16) {
		doc := []byte(head + string(coords) + tail)
		for _, base := range []Config{{PropKeys: []string{"name"}}, {Window: &win}} {
			fused, token := diffConfigs(base)
			var got, want []FeatureOut
			errF := ParseSequential(doc, fused, func(f FeatureOut) { got = append(got, f) })
			errT := ParseSequential(doc, token, func(f FeatureOut) { want = append(want, f) })
			if (errF == nil) != (errT == nil) {
				t.Fatalf("sequential: error %v, token path %v", errF, errT)
			}
			diffRendered(t, "sequential", renderAll(got), renderAll(want))
			for i, f := range got {
				if f.Feature.Geom != nil && boxBits(f.Box) != boxBits(f.Feature.Bound()) {
					t.Fatalf("feature %d: box %+v is not the geometry's bound %+v", i, f.Box, f.Feature.Bound())
				}
			}
			mid := first + 1 + int64(cut)%(int64(len(doc))-first-1)
			diffPAT(t, fmt.Sprintf("cut %d", mid), doc, base, []int64{first, mid})
		}
	})
}
