package atgis

// Differential test of the OSM XML pass against an oracle that shares
// neither the parser, nor the node table, nor the assembly with the
// engine: encoding/xml decodes the document, a map[int64]Point resolves
// the refs, and a serial loop written here builds the features the way
// the paper's two passes are defined. Engine and oracle must agree on
// ids, offsets, order and the exact bits of every coordinate, box and
// aggregate, wherever the blocks are cut and however many workers run —
// on a corpus (internal/osmxml/testdata/hostile.osm) of everything the
// format allows that a generator never writes.

import (
	"bytes"
	"context"
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"atgis/internal/geom"
	"atgis/internal/join"
	"atgis/internal/query"
	"atgis/internal/synth"
)

type oracleWay struct {
	id, off int64
	refs    []int64
}

type oracleMember struct {
	typ, role string
	ref       int64
}

type oracleRel struct {
	id, off int64
	members []oracleMember
}

// osmOracle returns the features of an OSM XML document in pass 2's
// order — every way no relation uses, in file order, then the relations —
// up to the first that cannot be built, whose error it returns.
func osmOracle(t *testing.T, data []byte) ([]geom.Feature, error) {
	t.Helper()
	attr := func(e xml.StartElement, name string) (string, bool) {
		for _, a := range e.Attr {
			if a.Name.Local == name {
				return a.Value, true
			}
		}
		return "", false
	}
	nodes := map[int64]geom.Point{}
	var ways []oracleWay
	var rels []oracleRel
	dec := xml.NewDecoder(bytes.NewReader(data))
	depth, top := 0, ""
	for {
		at := dec.InputOffset()
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("oracle: the corpus is not well-formed XML: %v", err)
		}
		switch e := tok.(type) {
		case xml.EndElement:
			depth--
		case xml.StartElement:
			depth++
			name := e.Name.Local
			id, _ := attr(e, "id")
			n, idErr := strconv.ParseInt(id, 10, 64)
			ref, _ := attr(e, "ref")
			r, refErr := strconv.ParseInt(ref, 10, 64)
			// An element is identified by the offset of the line it starts on.
			off := int64(bytes.LastIndexByte(data[:at], '\n') + 1)
			switch {
			case depth == 2:
				top = name
				switch name {
				case "node":
					lat, _ := attr(e, "lat")
					lon, _ := attr(e, "lon")
					y, latErr := strconv.ParseFloat(lat, 64)
					x, lonErr := strconv.ParseFloat(lon, 64)
					if idErr != nil || latErr != nil || lonErr != nil {
						t.Fatalf("oracle: bad node at %d", off)
					}
					nodes[n] = geom.Point{X: x, Y: y}
				case "way":
					ways = append(ways, oracleWay{id: n, off: off})
				case "relation":
					rels = append(rels, oracleRel{id: n, off: off})
				}
			case depth == 3 && top == "way" && name == "nd" && refErr == nil:
				ways[len(ways)-1].refs = append(ways[len(ways)-1].refs, r)
			case depth == 3 && top == "relation" && name == "member":
				m := oracleMember{ref: r}
				m.typ, _ = attr(e, "type")
				m.role, _ = attr(e, "role")
				rels[len(rels)-1].members = append(rels[len(rels)-1].members, m)
			}
		}
	}

	byID := map[int64]*oracleWay{}
	for i := range ways {
		byID[ways[i].id] = &ways[i]
	}
	used := map[int64]bool{}
	for _, r := range rels {
		for _, m := range r.members {
			if m.typ == "way" {
				used[m.ref] = true
			}
		}
	}
	points := func(w *oracleWay) ([]geom.Point, error) {
		pts := []geom.Point{}
		for _, ref := range w.refs {
			p, ok := nodes[ref]
			if !ok {
				return nil, fmt.Errorf("osmxml: way %d references missing node %d", w.id, ref)
			}
			pts = append(pts, p)
		}
		return pts, nil
	}
	closed := func(pts []geom.Point) bool { return pts[0] == pts[len(pts)-1] }
	// inside is the even-odd rule; the corpus puts no hole on a shell's edge.
	inside := func(p geom.Point, ring []geom.Point) bool {
		in := false
		for i, j := 0, len(ring)-1; i < len(ring); j, i = i, i+1 {
			a, b := ring[i], ring[j]
			if (a.Y > p.Y) != (b.Y > p.Y) && p.X < (b.X-a.X)*(p.Y-a.Y)/(b.Y-a.Y)+a.X {
				in = !in
			}
		}
		return in
	}
	var out []geom.Feature
	for i := range ways {
		w := &ways[i]
		if used[w.id] {
			continue
		}
		pts, err := points(w)
		if err != nil {
			return out, err
		}
		f := geom.Feature{ID: w.id, Offset: w.off, Geom: geom.LineString(pts)}
		if len(pts) >= 4 && closed(pts) {
			f.Geom = geom.Polygon{pts}
		}
		out = append(out, f)
	}
	for _, r := range rels {
		var shells, holes [][]geom.Point
		for _, m := range r.members {
			if m.typ != "way" {
				continue
			}
			w := byID[m.ref]
			if w == nil {
				return out, fmt.Errorf("osmxml: relation %d references missing way %d", r.id, m.ref)
			}
			pts, err := points(w)
			if err != nil {
				return out, err
			}
			if len(pts) >= 2 && !closed(pts) {
				pts = append(pts, pts[0])
			}
			if m.role == "inner" {
				holes = append(holes, pts)
			} else {
				shells = append(shells, pts)
			}
		}
		if len(shells) == 0 {
			return out, fmt.Errorf("osmxml: relation %d has no outer ways", r.id)
		}
		mp := geom.MultiPolygon{}
		for _, s := range shells {
			mp = append(mp, geom.Polygon{s})
		}
		for _, h := range holes {
			for i := range mp {
				if len(h) > 0 && inside(h[0], mp[i][0]) {
					mp[i] = append(mp[i], h)
					break
				}
			}
		}
		f := geom.Feature{ID: r.id, Offset: r.off, Geom: mp}
		if len(mp) == 1 {
			f.Geom = mp[0]
		}
		out = append(out, f)
	}
	return out, nil
}

// oracleBox is a feature's bounding box by min and max over the points
// that count: all of a way's, a relation's shells'.
func oracleBox(g geom.Geometry) geom.Box {
	b := geom.Box{MinX: math.Inf(1), MinY: math.Inf(1), MaxX: math.Inf(-1), MaxY: math.Inf(-1)}
	add := func(pts []geom.Point) {
		for _, p := range pts {
			b.MinX, b.MaxX = math.Min(b.MinX, p.X), math.Max(b.MaxX, p.X)
			b.MinY, b.MaxY = math.Min(b.MinY, p.Y), math.Max(b.MaxY, p.Y)
		}
	}
	switch g := g.(type) {
	case geom.LineString:
		add(g)
	case geom.Polygon:
		add(g[0])
	case geom.MultiPolygon:
		for _, p := range g {
			add(p[0])
		}
	}
	return b
}

// renderGeom renders a geometry's type, shape and exact coordinate bits.
func renderGeom(g geom.Geometry) string {
	var b strings.Builder
	ring := func(pts []geom.Point) {
		b.WriteByte('(')
		for _, p := range pts {
			b.WriteString(bits(p.X) + ":" + bits(p.Y) + " ")
		}
		b.WriteByte(')')
	}
	switch g := g.(type) {
	case nil:
		return "nil"
	case geom.LineString:
		b.WriteString("line")
		ring(g)
	case geom.Polygon:
		b.WriteString("polygon")
		for _, r := range g {
			ring(r)
		}
	case geom.MultiPolygon:
		b.WriteString("multipolygon")
		for _, p := range g {
			b.WriteByte('[')
			for _, r := range p {
				ring(r)
			}
			b.WriteByte(']')
		}
	default:
		return fmt.Sprintf("%T", g)
	}
	return b.String()
}

func hostileOSM(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile("internal/osmxml/testdata/hostile.osm")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// osmRender is what the four consumers of an OSM pass show of it.
type osmRender struct{ query, stream, join, reparse string }

// renderOSM runs a containment query, its stream, a join (once with a
// bounds-only partition pass, once with geometry) and the join's
// reparser over data.
func renderOSM(t *testing.T, data []byte, spec *query.Spec, workers int, opt Options) (osmRender, error) {
	t.Helper()
	var out osmRender
	src, err := FromBytes(data, OSMXML)
	if err != nil {
		t.Fatal(err)
	}
	eng := testEngine(t, workers)
	ctx := context.Background()
	pq, err := eng.Prepare(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pq.Execute(ctx, src)
	if err != nil {
		return out, err
	}
	out.query = renderQueryResult(res)

	var b strings.Builder
	st := pq.Stream(ctx, src)
	for st.Next() {
		f, v := st.Feature(), st.Value()
		fmt.Fprintf(&b, "id=%d off=%d area=%s perim=%s box=%s %s\n", f.ID, f.Offset, bits(v.Area), bits(v.Perimeter), renderBox(v.Box), renderGeom(f.Geom))
	}
	sum, err := st.Summary()
	if err != nil {
		return out, err
	}
	out.stream = b.String() + renderQueryResult(sum)

	b.Reset()
	for _, boundsOnly := range []bool{true, false} {
		jr, err := eng.Join(ctx, src, JoinSpec{Mask: paritySideMask, CellSize: 2, BoundsSafeMask: boundsOnly}, opt)
		if err != nil {
			return out, err
		}
		fmt.Fprintf(&b, "bounds-only=%v\n", boundsOnly)
		for _, p := range jr.Pairs {
			fmt.Fprintf(&b, "a=%d/%d b=%d/%d\n", p.AID, p.AOff, p.BID, p.BOff)
		}
	}
	out.join = b.String()

	b.Reset()
	reparse, err := eng.reparser(ctx, src, eng.opts(opt))
	if err != nil {
		return out, err
	}
	for off := int64(0); off < int64(len(data)); off++ {
		if off == 0 || data[off-1] == '\n' {
			if g, err := reparse(off); err == nil {
				fmt.Fprintf(&b, "off=%d %s\n", off, renderGeom(g))
			}
		}
	}
	out.reparse = b.String()
	return out, nil
}

// wantOSM renders the same four from the oracle's features.
func wantOSM(spec *query.Spec, feats []geom.Feature) osmRender {
	var out osmRender
	var stream strings.Builder
	res := query.NewResult()
	for i := range feats {
		f := &feats[i]
		box := oracleBox(f.Geom)
		var v query.FeatureVal
		if box.Intersects(spec.RefBox) && geom.Intersects(f.Geom, spec.Ref) {
			v = query.FeatureVal{Matched: true, Box: box, Area: geom.SphericalArea(f.Geom), Perimeter: geom.Perimeter(f.Geom, spec.Dist)}
			fmt.Fprintf(&stream, "id=%d off=%d area=%s perim=%s box=%s %s\n", f.ID, f.Offset, bits(v.Area), bits(v.Perimeter), renderBox(box), renderGeom(f.Geom))
		}
		res.Absorb(spec, f, v)
	}
	out.query = renderQueryResult(&Result{Res: res})
	out.stream = stream.String() + out.query

	var as, bs []geom.Feature
	for _, f := range feats {
		if f.ID%2 == 0 {
			as = append(as, f)
		} else {
			bs = append(bs, f)
		}
	}
	var pairs strings.Builder
	for _, p := range join.NestedLoop(as, bs, geom.Intersects) {
		fmt.Fprintf(&pairs, "a=%d/%d b=%d/%d\n", p.AID, p.AOff, p.BID, p.BOff)
	}
	out.join = "bounds-only=true\n" + pairs.String() + "bounds-only=false\n" + pairs.String()

	var re strings.Builder
	byOff := append([]geom.Feature(nil), feats...)
	sort.Slice(byOff, func(i, j int) bool { return byOff[i].Offset < byOff[j].Offset })
	for _, f := range byOff {
		fmt.Fprintf(&re, "off=%d %s\n", f.Offset, renderGeom(f.Geom))
	}
	out.reparse = re.String()
	return out
}

func TestOSMDifferential(t *testing.T) {
	data := hostileOSM(t)
	spec := &query.Spec{
		Kind: query.Containment, Pred: query.PredIntersects, Dist: geom.Haversine,
		Ref:      geom.Box{MinX: -2, MinY: -2, MaxX: 5.5, MaxY: 2.5}.AsPolygon(),
		WantArea: true, WantPerimeter: true, WantMBR: true, KeepMatches: true,
	}
	spec.Normalize()
	feats, err := osmOracle(t, data)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	want := wantOSM(spec, feats)
	if n := strings.Count("\n"+want.stream, "\nid="); n < 4 || n > len(feats)-4 {
		t.Fatalf("the window matches %d of %d features: it does not exercise both outcomes", n, len(feats))
	}
	if !strings.Contains(want.join, "a=") {
		t.Fatal("the oracle join found no pair")
	}
	for _, bs := range []int{64, 200, 1 << 10, 4 << 10, 1 << 30} {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("block%d/w%d", bs, workers), func(t *testing.T) {
				got, err := renderOSM(t, data, spec, workers, Options{BlockSize: bs})
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range []struct{ name, got, want string }{
					{"query", got.query, want.query}, {"stream", got.stream, want.stream},
					{"join", got.join, want.join}, {"reparser", got.reparse, want.reparse},
				} {
					if c.got != c.want {
						t.Errorf("%s differs from the oracle\n got:\n%s\nwant:\n%s", c.name, c.got, c.want)
					}
				}
			})
		}
	}
}

// TestOSMDifferentialErrors: a dangling reference fails the pass with the
// error, and after the features, a serial pass 2 would have produced.
func TestOSMDifferentialErrors(t *testing.T) {
	clean := hostileOSM(t)
	cases := []struct{ name, element, wantErr string }{
		{"missing node", " <way id=\"900\">\n  <nd ref=\"30\"/>\n  <nd ref=\"12345\"/>\n </way>\n", "osmxml: way 900 references missing node 12345"},
		{"missing way", " <relation id=\"901\">\n  <member type=\"way\" ref=\"54321\" role=\"outer\"/>\n </relation>\n", "osmxml: relation 901 references missing way 54321"},
		{"no outer ways", " <relation id=\"902\">\n  <member type=\"way\" ref=\"70\" role=\"inner\"/>\n  <member type=\"node\" ref=\"30\" role=\"outer\"/>\n </relation>\n", "osmxml: relation 902 has no outer ways"},
		{"member way lost a node", " <way id=\"903\">\n  <nd ref=\"-404\"/>\n </way>\n <relation id=\"904\">\n  <member type=\"way\" ref=\"903\" role=\"outer\"/>\n </relation>\n", "osmxml: way 903 references missing node -404"},
	}
	// Each element goes in before the relation in the middle of the file, so
	// that ways and relations follow it.
	at := bytes.Index(clean, []byte(` <relation id="301">`))
	if at < 0 {
		t.Fatal("corpus changed: no relation 301")
	}
	for _, tc := range cases {
		data := append(append(append([]byte(nil), clean[:at]...), tc.element...), clean[at:]...)
		feats, err := osmOracle(t, data)
		if err == nil || err.Error() != tc.wantErr {
			t.Fatalf("%s: oracle error = %v, want %s", tc.name, err, tc.wantErr)
		}
		var want []string
		for _, f := range feats {
			want = append(want, fmt.Sprintf("id=%d off=%d %s", f.ID, f.Offset, renderGeom(f.Geom)))
		}
		for _, bs := range []int{64, 1 << 10, 1 << 30} {
			for _, workers := range []int{1, 4} {
				src, err := FromBytes(data, OSMXML)
				if err != nil {
					t.Fatal(err)
				}
				pq, err := testEngine(t, workers).Prepare(&query.Spec{Kind: query.Containment}, Options{BlockSize: bs})
				if err != nil {
					t.Fatal(err)
				}
				var got []string
				st := pq.Stream(context.Background(), src)
				for st.Next() {
					f := st.Feature()
					got = append(got, fmt.Sprintf("id=%d off=%d %s", f.ID, f.Offset, renderGeom(f.Geom)))
				}
				if err := st.Err(); err == nil || err.Error() != tc.wantErr {
					t.Errorf("%s block %d w%d: stream error = %v, want %s", tc.name, bs, workers, err, tc.wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s block %d w%d: streamed before the error\n got %v\nwant %v", tc.name, bs, workers, got, want)
				}
				if _, err := pq.Execute(context.Background(), src); err == nil || err.Error() != tc.wantErr {
					t.Errorf("%s block %d w%d: Execute error = %v, want %s", tc.name, bs, workers, err, tc.wantErr)
				}
			}
		}
	}
}

// benchScale is the benchmark's scan file: 24 000 features, 31 MB as OSM
// XML.
var benchScale = synth.Config{Seed: 1, N: 24000, Sigma: 0.5, MeanEdges: 12, MultiPolyFrac: 0.15, LineFrac: 0.15, MetadataBytes: 60}

// TestOSMPassMemoryBound states what an OSM XML pass may allocate: the
// node table at 24 bytes a node and the refs at 8 bytes a ref are the
// floor; way, relation and member records, the boxes of pass 2 and the
// slack of columns sized by line count ride in 32 B per node + 16 B per
// ref, and only what survives the window costs more (1 KiB a match covers
// its geometry, its value and its match record). The parent's sharded
// maps and per-element objects took 48 MB and 246 k objects for the same
// pass.
func TestOSMPassMemoryBound(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the benchmark's 31 MB scan file")
	}
	var buf bytes.Buffer
	if err := synth.New(benchScale).WriteOSMXML(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	nodes := int64(bytes.Count(data, []byte("<node ")))
	refs := int64(bytes.Count(data, []byte("<nd ")))
	src, err := FromBytes(data, OSMXML)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(EngineConfig{Workers: 2})
	defer eng.Close()
	for _, frac := range []float64{0.05, 1e-9} {
		spec := &query.Spec{Kind: query.Containment, Ref: query.ScaleBox(synth.Extent, frac).AsPolygon(), Pred: query.PredIntersects, KeepMatches: true}
		pq, err := eng.Prepare(spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// The process-wide counters see the runtime's own allocations too:
		// take the quietest of three passes.
		var res *Result
		for i := 0; i < 3; i++ {
			r, err := pq.Execute(context.Background(), src)
			if err != nil {
				t.Fatal(err)
			}
			if res == nil || r.Stats.AllocBytes < res.Stats.AllocBytes {
				res = r
			}
		}
		if res.Res.Scanned != int64(benchScale.N) {
			t.Fatalf("scanned %d features, want %d", res.Res.Scanned, benchScale.N)
		}
		limit := uint64(32*nodes + 16*refs + 1024*res.Res.Count + 256<<10)
		t.Logf("window %g: %d nodes, %d refs, %d matches: allocated %.1f MB in %d objects (limit %.1f MB)",
			frac, nodes, refs, res.Res.Count, float64(res.Stats.AllocBytes)/1e6, res.Stats.AllocObjects, float64(limit)/1e6)
		if res.Stats.AllocBytes > limit {
			t.Errorf("window %g: pass allocated %d bytes, over 32 B/node + 16 B/ref + 1 KiB/match + 256 KiB = %d", frac, res.Stats.AllocBytes, limit)
		}
		if res.Stats.AllocBytes > 20<<20 {
			t.Errorf("window %g: pass allocated %d bytes, over 20 MB", frac, res.Stats.AllocBytes)
		}
	}
}

// TestStatsCoverThePass: Result.Stats reports the whole pass — OSM XML's
// second plan and every fold's finish included — so its wall time is what
// the caller waited, less the few microseconds around the pass.
func TestStatsCoverThePass(t *testing.T) {
	for _, tc := range []struct {
		format Format
		mode   Mode
	}{{GeoJSON, PAT}, {GeoJSON, FAT}, {WKT, PAT}, {OSMXML, PAT}} {
		t.Run(tc.format.String()+"/"+tc.mode.String(), func(t *testing.T) {
			src := genDataset(t, tc.format, 3000)
			eng := NewEngine(EngineConfig{Workers: 2})
			defer eng.Close()
			pq, err := eng.Prepare(diffSpec(query.PredIntersects, 0.5, false), Options{Mode: tc.mode, BlockSize: 64 << 10})
			if err != nil {
				t.Fatal(err)
			}
			// A descheduled test goroutine shows up outside the pass: allow
			// a few attempts.
			var ratio float64
			for i := 0; i < 5 && ratio < 0.9; i++ {
				start := time.Now()
				res, err := pq.Execute(context.Background(), src)
				elapsed := time.Since(start)
				if err != nil {
					t.Fatal(err)
				}
				if res.Stats.WallTime > elapsed {
					t.Fatalf("Stats.WallTime %v exceeds the call's %v", res.Stats.WallTime, elapsed)
				}
				if res.Stats.Blocks < 4 || res.Stats.MergeTime <= 0 {
					t.Fatalf("stats: %+v", res.Stats)
				}
				ratio = float64(res.Stats.WallTime) / float64(elapsed)
			}
			if ratio < 0.9 {
				t.Errorf("Stats.WallTime covers %.0f%% of Execute, want at least 90%%", 100*ratio)
			}
		})
	}
}
