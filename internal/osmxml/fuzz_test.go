package osmxml

// The parser and the resolver run over raw mmap'd input inside worker
// goroutines, so the fuzz contract is strict no-panic — malformed
// elements return errors or skip lines, never crash — and, for the block
// parser, split invariance: no state crosses an element-aligned cut.

import (
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
// parsed does not panic.
func FuzzOSMBlock(f *testing.F) {
	for i, seed := range fuzzSeeds(f) {
		f.Add(seed, uint(17*i))
		f.Add(seed, uint(len(seed)/2))
	}
	f.Fuzz(func(t *testing.T, data []byte, cut uint) {
		n := int64(len(data))
		whole, wholeErr := ParseElements(data, 0, n)
		wholeTab := NewNodeTable()
		wholeTab.Append(whole.NodeIDs, whole.NodePts, whole.Ascending)

		at := n
		if n > 0 {
			if cuts := SplitElements(data, 1+int(cut%uint(n))); len(cuts) > 0 {
				at = cuts[0]
			}
		}
		parts, partsErr := ParseElements(data, 0, at)
		partsTab := NewNodeTable()
		partsTab.Append(parts.NodeIDs, parts.NodePts, parts.Ascending)
		if partsErr == nil && at < n {
			var tail Elements
			tail, partsErr = ParseElements(data, at, n)
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
		r := Link(wholeTab, blocks).Resolver()
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
	})
}
