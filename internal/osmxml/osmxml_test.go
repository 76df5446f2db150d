package osmxml

import (
	"bytes"
	"reflect"
	"testing"

	"atgis/internal/geom"
)

// buildSample writes a small OSM document: four nodes forming a square,
// one closed way (polygon), one open way (linestring) and one
// multipolygon relation with a hole.
func buildSample(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	// Outer square.
	w.WriteNode(1, geom.Point{X: 0, Y: 0})
	w.WriteNode(2, geom.Point{X: 4, Y: 0})
	w.WriteNode(3, geom.Point{X: 4, Y: 4})
	w.WriteNode(4, geom.Point{X: 0, Y: 4})
	// Inner square (hole).
	w.WriteNode(5, geom.Point{X: 1, Y: 1})
	w.WriteNode(6, geom.Point{X: 2, Y: 1})
	w.WriteNode(7, geom.Point{X: 2, Y: 2})
	w.WriteNode(8, geom.Point{X: 1, Y: 2})
	// Closed way: square polygon.
	w.WriteWay(100, []int64{1, 2, 3, 4, 1}, map[string]string{"building": "yes"})
	// Open way: path.
	w.WriteWay(101, []int64{1, 3}, nil)
	// Hole ring way.
	w.WriteWay(102, []int64{5, 6, 7, 8, 5}, nil)
	// Relation: outer 100 with inner 102.
	w.WriteRelation(200, []Member{
		{Type: "way", Ref: 100, Role: "outer"},
		{Type: "way", Ref: 102, Role: "inner"},
	}, map[string]string{"type": "multipolygon"})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// parseSample runs ParseBlock over input, the way the benchmark's probe
// does: one object per element, nodes put into a table.
func parseSample(t *testing.T, input []byte) (*NodeTable, []*Way, []*Relation) {
	t.Helper()
	nodes := NewNodeTable()
	var ways []*Way
	var rels []*Relation
	err := ParseBlock(input, 0, int64(len(input)), &Handler{
		OnNode:     nodes.Put,
		OnWay:      func(w *Way) { ways = append(ways, w) },
		OnRelation: func(r *Relation) { rels = append(rels, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes.Freeze()
	return nodes, ways, rels
}

func TestParseRoundTrip(t *testing.T) {
	input := buildSample(t)
	nodes, ways, rels := parseSample(t, input)
	if nodes.n != 8 {
		t.Errorf("nodes = %d, want 8", nodes.n)
	}
	if len(ways) != 3 {
		t.Fatalf("ways = %d, want 3", len(ways))
	}
	if len(rels) != 1 {
		t.Fatalf("relations = %d, want 1", len(rels))
	}
	if ways[0].ID != 100 || len(ways[0].Refs) != 5 {
		t.Errorf("way 0 = %+v", ways[0])
	}
	if ways[0].Tags["building"] != "yes" {
		t.Errorf("way tags = %v", ways[0].Tags)
	}
	if ways[1].Tags != nil {
		t.Errorf("untagged way has tags %v", ways[1].Tags)
	}
	r := rels[0]
	if r.ID != 200 || len(r.Members) != 2 {
		t.Fatalf("relation = %+v", r)
	}
	if r.Members[0].Role != "outer" || r.Members[1].Role != "inner" {
		t.Errorf("member roles = %+v", r.Members)
	}
	if r.Tags["type"] != "multipolygon" {
		t.Errorf("relation tags = %v", r.Tags)
	}
	cur := nodes.Cursor()
	if p, ok := cur.Get(3); !ok || !p.Equal(geom.Point{X: 4, Y: 4}) {
		t.Errorf("node 3 = %v ok=%v", p, ok)
	}

	// A block of relations only (the tail of every file) keeps their tags.
	at := int64(bytes.Index(input, []byte(" <relation")))
	var tail []*Relation
	if err := ParseBlock(input, at, int64(len(input)), &Handler{OnRelation: func(r *Relation) { tail = append(tail, r) }}); err != nil {
		t.Fatal(err)
	}
	if len(tail) != 1 || tail[0].Off != at || tail[0].Tags["type"] != "multipolygon" {
		t.Errorf("relations-only block = %+v", tail)
	}

	// The columns the engine reads hold the same elements.
	el, err := ParseElements(input, 0, int64(len(input)))
	if err != nil {
		t.Fatal(err)
	}
	if len(el.NodeIDs) != 8 || !el.Ascending || len(el.Ways) != 3 || len(el.Rels) != 1 || len(el.Refs) != 12 {
		t.Fatalf("columns: %d nodes (ascending %v), %d ways over %d refs, %d relations",
			len(el.NodeIDs), el.Ascending, len(el.Ways), len(el.Refs), len(el.Rels))
	}
	for i, w := range ways {
		rec := el.Ways[i]
		if rec.ID != w.ID || rec.Off != w.Off || !reflect.DeepEqual(el.WayRefs(i), w.Refs) {
			t.Errorf("way record %d = %+v over %v, handler saw %+v", i, rec, el.WayRefs(i), w)
		}
	}
	if rec := el.Rels[0]; rec.ID != r.ID || rec.Off != r.Off || !reflect.DeepEqual(el.RelMembers(0), r.Members) {
		t.Errorf("relation record = %+v, handler saw %+v", rec, r)
	}
}

// sampleTopology is pass 1 and Link over the sample document.
func sampleTopology(t *testing.T) (*Elements, *Topology) {
	t.Helper()
	input := buildSample(t)
	el, err := ParseElements(input, 0, int64(len(input)))
	if err != nil {
		t.Fatal(err)
	}
	nodes := NewNodeTable()
	nodes.Append(el.NodeIDs, el.NodePts, el.Ascending)
	blocks := []Elements{el}
	return &blocks[0], Link(nodes, blocks)
}

func TestResolveWayKinds(t *testing.T) {
	el, topo := sampleTopology(t)
	if !el.Ways[0].InRelation || el.Ways[1].InRelation || !el.Ways[2].InRelation {
		t.Errorf("InRelation = %v %v %v, want the relation's two members marked",
			el.Ways[0].InRelation, el.Ways[1].InRelation, el.Ways[2].InRelation)
	}
	r := topo.Resolver()

	box, err := r.Way(el, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := r.Build()
	poly, ok := g.(geom.Polygon)
	if !ok {
		t.Fatalf("closed way = %T, want Polygon", g)
	}
	if got := geom.PlanarArea(poly); got != 16 {
		t.Errorf("polygon area = %v, want 16", got)
	}
	if box != g.Bound() {
		t.Errorf("box = %v, geometry bound = %v", box, g.Bound())
	}

	if _, err = r.Way(el, 1); err != nil {
		t.Fatal(err)
	}
	if g := r.Build(); g.Type() != geom.TypeLineString {
		t.Fatalf("open way = %T, want LineString", g)
	}

	// Missing node reference.
	bad := &Elements{Ways: []WayRec{{ID: 999}}, Refs: []int64{1, 777}}
	if _, err := r.Way(bad, 0); err == nil || err.Error() != "osmxml: way 999 references missing node 777" {
		t.Errorf("missing node: err = %v", err)
	}
}

func TestResolveRelationWithHole(t *testing.T) {
	el, topo := sampleTopology(t)
	r := topo.Resolver()
	box, err := r.Relation(el, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := r.Build()
	poly, ok := g.(geom.Polygon)
	if !ok {
		t.Fatalf("relation = %T, want Polygon", g)
	}
	if len(poly) != 2 {
		t.Fatalf("rings = %d, want outer+hole", len(poly))
	}
	if got := geom.PlanarArea(poly); got != 15 {
		t.Errorf("area = %v, want 15 (16 - 1)", got)
	}
	if box != g.Bound() {
		t.Errorf("box = %v, geometry bound = %v", box, g.Bound())
	}
	// Missing members error.
	bad := &Elements{
		Rels:    []RelRec{{ID: 9}, {ID: 10, Lo: 1}},
		Members: []Member{{Type: "way", Ref: 12345}},
	}
	if _, err := r.Relation(bad, 0); err == nil || err.Error() != "osmxml: relation 9 references missing way 12345" {
		t.Errorf("missing way: err = %v", err)
	}
	if _, err := r.Relation(bad, 1); err == nil || err.Error() != "osmxml: relation 10 has no outer ways" {
		t.Errorf("relation without outer: err = %v", err)
	}
}

// TestRejectedWayAllocatesNothing: resolving is all a window-rejected
// element costs, and resolving allocates nothing once the resolver's
// buffers have grown.
func TestRejectedWayAllocatesNothing(t *testing.T) {
	el, topo := sampleTopology(t)
	r := topo.Resolver()
	allocs := testing.AllocsPerRun(100, func() {
		for i := range el.Ways {
			if _, err := r.Way(el, i); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := r.Relation(el, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("resolving without building allocates %v objects per run, want 0", allocs)
	}
}

// TestNodeTableOrder: columns that arrive in ascending id order are kept
// as they are; anything else is sorted once, the last position given for
// an id winning, as a map insert would.
func TestNodeTableOrder(t *testing.T) {
	pt := func(v float64) geom.Point { return geom.Point{X: v, Y: -v} }
	check := func(t *testing.T, tab *NodeTable, want map[int64]geom.Point) {
		t.Helper()
		tab.Freeze()
		if tab.n != len(want) {
			t.Errorf("n = %d, want %d", tab.n, len(want))
		}
		cur := tab.Cursor()
		for _, id := range []int64{-7, -1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 50, 3, 2, 1} {
			p, ok := cur.Get(id)
			if w, wok := want[id]; ok != wok || p != w {
				t.Errorf("Get(%d) = %v %v, want %v %v", id, p, ok, w, wok)
			}
		}
	}
	t.Run("ascending chunks", func(t *testing.T) {
		tab := NewNodeTable()
		tab.Append([]int64{-7, 1, 2}, []geom.Point{pt(-7), pt(1), pt(2)}, true)
		tab.Append(nil, nil, true)
		tab.Append([]int64{4, 5}, []geom.Point{pt(4), pt(5)}, true)
		tab.Put(9, pt(9))
		if tab.unsorted {
			t.Error("ascending input marked unsorted")
		}
		check(t, tab, map[int64]geom.Point{-7: pt(-7), 1: pt(1), 2: pt(2), 4: pt(4), 5: pt(5), 9: pt(9)})
		if len(tab.chunks) != 2 {
			t.Errorf("%d chunks, want the 2 appended kept as they came", len(tab.chunks))
		}
	})
	t.Run("seam out of order", func(t *testing.T) {
		tab := NewNodeTable()
		tab.Append([]int64{4, 5}, []geom.Point{pt(4), pt(5)}, true)
		tab.Append([]int64{1, 2}, []geom.Point{pt(1), pt(2)}, true)
		check(t, tab, map[int64]geom.Point{1: pt(1), 2: pt(2), 4: pt(4), 5: pt(5)})
	})
	t.Run("duplicates, last wins", func(t *testing.T) {
		tab := NewNodeTable()
		tab.Append([]int64{3, 1, 3}, []geom.Point{pt(30), pt(1), pt(31)}, false)
		tab.Put(1, pt(11))
		tab.Put(8, pt(8))
		tab.Append([]int64{3}, []geom.Point{pt(32)}, true)
		check(t, tab, map[int64]geom.Point{1: pt(11), 3: pt(32), 8: pt(8)})
	})
	t.Run("empty", func(t *testing.T) {
		check(t, NewNodeTable(), nil)
	})
}

func TestSplitElementsInvariance(t *testing.T) {
	// A larger document; any block size must parse the same elements.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := int64(0); i < 200; i++ {
		w.WriteNode(i, geom.Point{X: float64(i), Y: float64(i)})
	}
	for i := int64(0); i < 40; i++ {
		w.WriteWay(1000+i, []int64{i, i + 1, i + 2}, map[string]string{"highway": "path"})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	input := buf.Bytes()

	countAll := func(cuts []int64) (int, int) {
		nodes, ways := 0, 0
		prev := int64(0)
		for _, c := range append(cuts, int64(len(input))) {
			if c <= prev {
				continue
			}
			err := ParseBlock(input, prev, c, &Handler{
				OnNode: func(int64, geom.Point) { nodes++ },
				OnWay:  func(*Way) { ways++ },
			})
			if err != nil {
				t.Fatal(err)
			}
			prev = c
		}
		return nodes, ways
	}
	wantNodes, wantWays := countAll(nil)
	if wantNodes != 200 || wantWays != 40 {
		t.Fatalf("sequential = %d nodes %d ways", wantNodes, wantWays)
	}
	for _, bs := range []int{64, 300, 1024, 10000, 1 << 22} {
		cuts := SplitElements(input, bs)
		gotNodes, gotWays := countAll(cuts)
		if gotNodes != wantNodes || gotWays != wantWays {
			t.Fatalf("block size %d: %d/%d nodes, %d/%d ways",
				bs, gotNodes, wantNodes, gotWays, wantWays)
		}
		// Ways must not straddle cuts: every way has exactly 3 refs.
		prev := int64(0)
		for _, c := range append(cuts, int64(len(input))) {
			if c <= prev {
				continue
			}
			ParseBlock(input, prev, c, &Handler{OnWay: func(w *Way) {
				if len(w.Refs) != 3 {
					t.Fatalf("block size %d: way %d has %d refs", bs, w.ID, len(w.Refs))
				}
			}})
			prev = c
		}
	}
}

// attrsOf scans every attribute of an element line.
func attrsOf(line string) map[string]string {
	out := map[string]string{}
	rest := []byte(line)[1:]
	i := bytes.IndexAny(rest, " \t/>")
	if i < 0 {
		return out
	}
	for {
		name, val, next, ok := nextAttr(rest, i)
		if !ok {
			return out
		}
		if _, dup := out[string(name)]; !dup {
			out[string(name)] = string(val)
		}
		i = next
	}
}

func TestAttrScannerEdgeCases(t *testing.T) {
	attrs := attrsOf(`<node id="12" lat="1.5" lon="-2.5" uid="7"/>`)
	if attrs["id"] != "12" || attrs["uid"] != "7" || attrs["lat"] != "1.5" || len(attrs) != 4 {
		t.Errorf("attrs = %v", attrs)
	}
	// "id" must not match inside "uid".
	if _, ok := attrsOf(`<node uid="7"/>`)["id"]; ok {
		t.Error("id matched inside uid")
	}
	// Either quote character; the other one is text inside the value.
	attrs = attrsOf(`<tag k='name' v="O'Neill" w = '"x"'/>`)
	if attrs["k"] != "name" || attrs["v"] != "O'Neill" || attrs["w"] != `"x"` {
		t.Errorf("quotes: attrs = %v", attrs)
	}
	// Text inside a value is never an attribute name.
	attrs = attrsOf(`<tag k="note" v="see id=&quot;9&quot; lat='3' ref=&quot;4"/>`)
	if len(attrs) != 2 || attrs["k"] != "note" {
		t.Errorf("value text leaked into names: attrs = %v", attrs)
	}
	// An unterminated value ends the scan instead of swallowing the line.
	if attrs = attrsOf(`<node id="1" lat="2 lon=3/>`); len(attrs) != 1 || attrs["id"] != "1" {
		t.Errorf("unterminated value: attrs = %v", attrs)
	}

	// Whole lines: the element name needs a delimiter after it, values may
	// use either quote, and what a value says changes nothing.
	parse := func(doc string) (Elements, error) { return ParseElements([]byte(doc), 0, int64(len(doc))) }
	el, err := parse("<node id='1' lat='2.5' lon=\"-3\"/>\n<node lon='4' note=\"id='9'\" lat='5' id='2'></node>\n")
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{1, 2}; !reflect.DeepEqual(el.NodeIDs, want) || el.NodePts[0] != (geom.Point{X: -3, Y: 2.5}) || el.NodePts[1] != (geom.Point{X: 4, Y: 5}) {
		t.Errorf("nodes = %v at %v", el.NodeIDs, el.NodePts)
	}
	el, err = parse(`<nodes id="1"/>
<wayfarer id="2">
<way id="3">
<ndx ref="1"/>
<nd ref="7"/>
<nd	ref='8'/>
<tagged k="a" v="b"/>
</wayfarer>
</way>
<relationship id="4"/>
<relation id="5">
<members type="way" ref="3" role="outer"/>
<member role='inner' ref='3' type='way'/>
</relation>
<way id="6"/>
<relation id='7' />
`)
	if err != nil {
		t.Fatalf("look-alike element names must be skipped, not parsed: %v", err)
	}
	if len(el.NodeIDs) != 0 {
		t.Errorf("<nodes> parsed as a node: %v", el.NodeIDs)
	}
	if len(el.Ways) != 2 || el.Ways[0].ID != 3 || !reflect.DeepEqual(el.WayRefs(0), []int64{7, 8}) ||
		el.Ways[1].ID != 6 || len(el.WayRefs(1)) != 0 {
		t.Errorf("ways = %+v over %v", el.Ways, el.Refs)
	}
	if len(el.Rels) != 2 || el.Rels[0].ID != 5 || el.Rels[1].ID != 7 ||
		!reflect.DeepEqual(el.Members, []Member{{Type: "way", Ref: 3, Role: "inner"}}) {
		t.Errorf("relations = %+v over %+v", el.Rels, el.Members)
	}
	for _, bad := range []string{"<node id=1 lat=\"2\" lon=\"3\"/>", "<node id=\"1\" lat=\"2\"/>", "<node id=\"1x\" lat=\"2\" lon=\"3\"/>", "<way>", "<way id=\"x\">", "<relation ref=\"1\">"} {
		if _, err := parse(bad + "\n"); err == nil {
			t.Errorf("%s: no error", bad)
		}
	}
}
