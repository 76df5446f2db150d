package osmxml

// The parser and the resolver run over raw mmap'd input inside worker
// goroutines, so the fuzz contract is strict no-panic — malformed
// elements return errors or skip lines, never crash — and, for the block
// parser, split invariance: no state crosses an element-aligned cut.

import (
	"math"
	"os"
	"reflect"
	"testing"

	"atgis/internal/geom"
)

func fuzzSeeds(f *testing.F) [][]byte {
	f.Helper()
	corpus, err := os.ReadFile("testdata/hostile.osm")
	if err != nil {
		f.Fatal(err)
	}
	return [][]byte{
		corpus,
		[]byte(`<node id="1" lat="51.5" lon="-0.1"/>`),
		[]byte(`<way id="42"><nd ref="1"/><nd ref="2"/></way>`),
		[]byte(`<relation id="7"><member type="way" ref="42" role="outer"/></relation>`),
		[]byte(`<node id= lat="x" lon=`),
		[]byte(`<node id="9999999999999999999999" lat="1e309" lon="-1e309"/>`),
		[]byte(`<way id="1"`),
		[]byte("<node id=\"1\"\x00\xff lat=\"0\" lon=\"0\"/>"),
		[]byte("id=\"3\" lat=\"\" lon=\"\"\""),
		[]byte("<way id='1'>\n<nd ref='1'/>\n<node id='1' lat='0' lon='0'/>\n<nd ref='1'/>\n</way>\n<relation id='2'>\n<member type='way' ref='1'/>\n<way id='3'/>\n</relation>\n"),
	}
}

func FuzzOSMAttrs(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for i := 0; i < len(data); {
			_, _, next, ok := nextAttr(data, i)
			if !ok {
				break
			}
			i = next
		}
		attrs(data, 0, true, [3]string{"id", "lat", "lon"})
		firstInt(data, 0, "ref")

		h := &Handler{
			OnNode:     func(int64, geom.Point) {},
			OnWay:      func(*Way) {},
			OnRelation: func(*Relation) {},
		}
		ParseBlock(data, 0, int64(len(data)), h)
	})
}

// join appends b's elements to a's, as if one block had held both.
func join(a, b Elements) Elements {
	refs, members := len(a.Refs), len(a.Members)
	a.NodeIDs = append(a.NodeIDs, b.NodeIDs...)
	a.NodePts = append(a.NodePts, b.NodePts...)
	a.Refs = append(a.Refs, b.Refs...)
	a.Members = append(a.Members, b.Members...)
	for _, w := range b.Ways {
		w.Lo += refs
		a.Ways = append(a.Ways, w)
	}
	for _, r := range b.Rels {
		r.Lo += members
		a.Rels = append(a.Rels, r)
	}
	return a
}

// FuzzOSMBlock: any bytes parse, as one block, to the same elements and
// the same error as two blocks cut at an element start, the node table
// agrees on whether they came in order, and pass 2 over whatever was
// parsed does not panic. Under a window taken from the input's first
// four bytes, pass 1 and pass 2 agree with the exact ones (checkGated).
func FuzzOSMBlock(f *testing.F) {
	for i, seed := range fuzzSeeds(f) {
		f.Add(seed, uint(17*i))
		f.Add(seed, uint(len(seed)/2))
		// Windows over the corpus's coordinates: [0, 4]² and [-4, 12]².
		f.Add(append([]byte("\x00\x00\x10\x10\n"), seed...), uint(len(seed)/3))
		f.Add(append([]byte("\xf0\xf0\x40\x40\n"), seed...), uint(len(seed)/3))
	}
	f.Fuzz(func(t *testing.T, data []byte, cut uint) {
		n := int64(len(data))
		whole, wholeErr := ParseElements(data, 0, n, nil)
		wholeTab := NewNodeTable()
		wholeTab.Append(whole.NodeIDs, whole.NodePts, whole.Ascending)

		at := n
		if n > 0 {
			if cuts := SplitElements(data, 1+int(cut%uint(n))); len(cuts) > 0 {
				at = cuts[0]
			}
		}
		parts, partsErr := ParseElements(data, 0, at, nil)
		partsTab := NewNodeTable()
		partsTab.Append(parts.NodeIDs, parts.NodePts, parts.Ascending)
		if partsErr == nil && at < n {
			var tail Elements
			tail, partsErr = ParseElements(data, at, n, nil)
			partsTab.Append(tail.NodeIDs, tail.NodePts, tail.Ascending)
			parts = join(parts, tail)
		}

		if (wholeErr == nil) != (partsErr == nil) || (wholeErr != nil && wholeErr.Error() != partsErr.Error()) {
			t.Fatalf("cut at %d: whole block: %v, two blocks: %v", at, wholeErr, partsErr)
		}
		whole.Ascending, parts.Ascending = false, false // the tables compare order
		if !reflect.DeepEqual(join(Elements{}, whole), join(Elements{}, parts)) {
			t.Fatalf("cut at %d: two blocks parse to different elements\nwhole: %+v\nparts: %+v", at, whole, parts)
		}
		if wholeTab.unsorted != partsTab.unsorted {
			t.Fatalf("cut at %d: node order: whole block unsorted=%v, two blocks unsorted=%v", at, wholeTab.unsorted, partsTab.unsorted)
		}

		blocks := []Elements{whole}
		r := Link(data, wholeTab, blocks).Resolver(nil)
		el := &blocks[0]
		for i := range el.Ways {
			if box, err := r.Way(el, i); err == nil {
				if g := r.Build(); g.Bound() != box {
					t.Fatalf("way %d: box %v, geometry bound %v", el.Ways[i].ID, box, g.Bound())
				}
			}
		}
		for i := range el.Rels {
			if box, err := r.Relation(el, i); err == nil {
				if g := r.Build(); g.Bound() != box {
					t.Fatalf("relation %d: box %v, geometry bound %v", el.Rels[i].ID, box, g.Bound())
				}
			}
		}

		// The window: from the first four bytes, in quarter units,
		// somewhere in [-32, 32) and up to 64 wide.
		var w [4]byte
		copy(w[:], data)
		x, y := float64(int8(w[0]))/4, float64(int8(w[1]))/4
		checkGated(t, data, geom.Box{MinX: x, MinY: y, MaxX: x + float64(w[2])/4, MaxY: y + float64(w[3])/4})
	})
}

func sameBits(a, b geom.Box) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return eq(a.MinX, b.MinX) && eq(a.MinY, b.MinY) && eq(a.MaxX, b.MaxX) && eq(a.MaxY, b.MaxY)
}

// checkGated holds pass 1 and pass 2 of data under win to the exact ones.
// Pass 1 fails with the same error text or parses the same elements, but
// for nodes left bracketed, whose cell contains the exact position and
// misses win. Every way and relation resolves with the same error text,
// or to the same box and geometry, or to a reject: a box that contains
// the exact box and misses win.
func checkGated(t *testing.T, data []byte, win geom.Box) {
	t.Helper()
	n := int64(len(data))
	exact, err := ParseElements(data, 0, n, nil)
	gated, gatedErr := ParseElements(data, 0, n, &win)
	if (err == nil) != (gatedErr == nil) || err != nil && err.Error() != gatedErr.Error() {
		t.Fatalf("under %+v: exact pass 1: %v; gated pass 1: %v", win, err, gatedErr)
	}
	if len(exact.NodePts) != len(gated.NodePts) {
		t.Fatalf("under %+v: %d nodes exact, %d gated", win, len(exact.NodePts), len(gated.NodePts))
	}
	for i, p := range gated.NodePts {
		want := exact.NodePts[i]
		if p.X != p.X {
			lo, hi := nodeCell(p)
			cell := geom.Box{MinX: lo.X, MinY: lo.Y, MaxX: hi.X, MaxY: hi.Y}
			if !cell.ContainsBox(geom.EmptyBox().ExtendPoint(want)) || cell.Intersects(win) || exactNode(data, p) != want {
				t.Fatalf("under %+v: node %d bracketed in %+v, exactly %v", win, gated.NodeIDs[i], cell, want)
			}
			gated.NodePts[i] = want
		}
	}
	if !reflect.DeepEqual(exact, gated) {
		t.Fatalf("under %+v: exact pass 1 %+v, gated %+v", win, exact, gated)
	}
	// gated now holds converted positions: parse it again for pass 2.
	gated, _ = ParseElements(data, 0, n, &win)

	resolver := func(el *Elements, win *geom.Box) (*Elements, *Resolver) {
		tab := NewNodeTable()
		tab.Append(el.NodeIDs, el.NodePts, el.Ascending)
		blocks := []Elements{*el}
		return &blocks[0], Link(data, tab, blocks).Resolver(win)
	}
	ex, er := resolver(&exact, nil)
	gel, gr := resolver(&gated, &win)
	check := func(what string, id int64, box geom.Box, err error, gbox geom.Box, gerr error) {
		if (err == nil) != (gerr == nil) || err != nil && err.Error() != gerr.Error() {
			t.Fatalf("under %+v: %s %d: exact %v; gated %v", win, what, id, err, gerr)
		}
		if err != nil {
			return
		}
		if !gbox.Intersects(win) {
			if !sameBits(gbox, box) && !gbox.ContainsBox(box) {
				t.Fatalf("under %+v: %s %d: gated reject box %+v does not contain the exact box %+v", win, what, id, gbox, box)
			}
			return
		}
		if !sameBits(gbox, box) {
			t.Fatalf("under %+v: %s %d: gated box %+v, exact %+v", win, what, id, gbox, box)
		}
		if g, gg := er.Build(), gr.Build(); !reflect.DeepEqual(g, gg) {
			t.Fatalf("under %+v: %s %d: gated geometry %v, exact %v", win, what, id, gg, g)
		}
	}
	for i := range ex.Ways {
		box, err := er.Way(ex, i)
		gbox, gerr := gr.Way(gel, i)
		check("way", ex.Ways[i].ID, box, err, gbox, gerr)
	}
	for i := range ex.Rels {
		box, err := er.Relation(ex, i)
		gbox, gerr := gr.Relation(gel, i)
		check("relation", ex.Rels[i].ID, box, err, gbox, gerr)
	}
}
