package osmxml

import (
	"fmt"

	"atgis/internal/geom"
)

// Topology is what pass 2 reads, frozen: the node table and, for every
// way a relation lists, where its record is.
type Topology struct {
	input []byte
	nodes *NodeTable
	ways  map[int64]wayLoc
}

type wayLoc struct {
	el *Elements
	i  int
}

// Link is the serial step between the passes. It freezes nodes, marks
// every way of blocks (pass 1's fragments of input, in input order) that
// a relation lists as a member — the relation consumes it, pass 2 does
// not emit it on its own — and indexes those ways, the last of equal ids
// winning. blocks must stay where it is while the Topology is in use.
func Link(input []byte, nodes *NodeTable, blocks []Elements) *Topology {
	nodes.Freeze()
	members := 0
	for b := range blocks {
		members += len(blocks[b].Members)
	}
	t := &Topology{input: input, nodes: nodes, ways: make(map[int64]wayLoc, members)}
	for b := range blocks {
		for _, m := range blocks[b].Members {
			if m.Type == "way" {
				t.ways[m.Ref] = wayLoc{}
			}
		}
	}
	if len(t.ways) == 0 {
		return t
	}
	for b := range blocks {
		el := &blocks[b]
		for i := range el.Ways {
			if _, ok := t.ways[el.Ways[i].ID]; ok {
				t.ways[el.Ways[i].ID] = wayLoc{el, i}
				el.Ways[i].InRelation = true
			}
		}
	}
	return t
}

// Resolver turns way and relation records into geometry for one pass 2
// worker, in two steps so that the caller can decide between them: Way
// or Relation resolves the refs against the node table into the
// resolver's own buffers and returns the bounding box — exactly the
// Bound() of the geometry Build would make, by geom's own rules — and
// Build materialises what was last resolved. An element dropped after
// the first step has allocated nothing.
//
// The one exception is an element with a node pass 1 left bracketed
// (ParseElements under a window): its box counts that node's whole 1°
// cell, and when that box misses the window it is returned as it is —
// it contains the element's bounds and misses the window — and the
// element must not be built. Any other such element reads its bracketed
// nodes exactly before its box is returned.
type Resolver struct {
	topo  *Topology
	win   *geom.Box
	cur   NodeCursor
	pts   []geom.Point // positions of the element in hand, ring after ring
	rings []ringEnd    // a relation's member ways as runs of pts
	rel   bool         // the element in hand is a relation
	held  int          // how many of pts are bracketed
}

type ringEnd struct {
	end   int // the ring is pts[previous end : end]
	inner bool
	box   geom.Box
}

// Resolver returns a resolver over t for a pass under the window win that
// pass 1 was given, or nil. It is not safe for concurrent use; any
// number of them are.
func (t *Topology) Resolver(win *geom.Box) *Resolver {
	return &Resolver{topo: t, win: win, cur: t.nodes.Cursor()}
}

// resolve appends the positions of way i of el to r.pts and returns
// their bounding box, a bracketed node's cell counting whole.
//
//atgis:hotpath
func (r *Resolver) resolve(el *Elements, i int) (geom.Box, error) {
	w := &el.Ways[i]
	box := geom.EmptyBox()
	for _, ref := range el.WayRefs(i) {
		p, ok := r.cur.Get(ref)
		if !ok {
			return box, missingNode(w.ID, ref)
		}
		if p.X != p.X {
			lo, hi := nodeCell(p)
			box = box.ExtendPoint(lo).ExtendPoint(hi)
			r.held++
		} else {
			box = box.ExtendPoint(p)
		}
		r.pts = append(r.pts, p)
	}
	return box, nil
}

//go:noinline
func missingNode(way, ref int64) error {
	return fmt.Errorf("osmxml: way %d references missing node %d", way, ref)
}

// settle reads the bracketed positions in hand exactly unless box, which
// contains them, misses the window, and reports whether it did.
func (r *Resolver) settle(box geom.Box) bool {
	if r.held == 0 || r.win != nil && !box.Intersects(*r.win) {
		return false
	}
	for k, p := range r.pts {
		if p.X != p.X {
			r.pts[k] = exactNode(r.topo.input, p)
		}
	}
	return true
}

// ringBox is the bounding box of pts, as resolve builds it.
func ringBox(pts []geom.Point) geom.Box {
	box := geom.EmptyBox()
	for _, p := range pts {
		box = box.ExtendPoint(p)
	}
	return box
}

// Way resolves way i of el.
func (r *Resolver) Way(el *Elements, i int) (geom.Box, error) {
	r.pts, r.rel, r.held = r.pts[:0], false, 0
	box, err := r.resolve(el, i)
	if err == nil && r.settle(box) {
		box = ringBox(r.pts)
	}
	return box, err
}

// Relation resolves relation i of el: its member ways, wherever pass 1
// found them. Outer members become polygon shells and inner members
// holes, so only the outer ones count towards the box.
func (r *Resolver) Relation(el *Elements, i int) (geom.Box, error) {
	r.pts, r.rings, r.rel, r.held = r.pts[:0], r.rings[:0], true, 0
	rel := &el.Rels[i]
	for _, m := range el.RelMembers(i) {
		if m.Type != "way" {
			continue
		}
		loc := r.topo.ways[m.Ref]
		if loc.el == nil {
			return geom.EmptyBox(), fmt.Errorf("osmxml: relation %d references missing way %d", rel.ID, m.Ref)
		}
		ring, err := r.resolve(loc.el, loc.i)
		if err != nil {
			return ring, err
		}
		r.rings = append(r.rings, ringEnd{len(r.pts), m.Role == "inner", ring})
	}
	box, outers := r.outerBox()
	if outers == 0 {
		return box, fmt.Errorf("osmxml: relation %d has no outer ways", rel.ID)
	}
	if r.settle(box) {
		lo := 0
		for k := range r.rings {
			r.rings[k].box = ringBox(r.pts[lo:r.rings[k].end])
			lo = r.rings[k].end
		}
		box, _ = r.outerBox()
	}
	return box, nil
}

// outerBox returns the box of the relation in hand and how many outer
// rings it has: a lone polygon is bounded by its shell, a multipolygon
// by the union of its polygons' bounds.
func (r *Resolver) outerBox() (box geom.Box, outers int) {
	box = geom.EmptyBox()
	for _, e := range r.rings {
		if e.inner {
			continue
		}
		if outers++; outers == 1 {
			box = e.box
		} else {
			if outers == 2 {
				box = geom.EmptyBox().Union(box)
			}
			box = box.Union(e.box)
		}
	}
	return box, outers
}

// Build returns the geometry of the element last resolved. A closed way
// is a polygon (the building/area convention), an open one a linestring;
// a relation is a polygon or multipolygon of its outer members, each
// inner member the hole of the first shell containing it.
func (r *Resolver) Build() geom.Geometry {
	if !r.rel {
		pts := append(make([]geom.Point, 0, len(r.pts)), r.pts...)
		if len(pts) >= 4 && pts[0].Equal(pts[len(pts)-1]) {
			return geom.Polygon{geom.Ring(pts)}
		}
		return geom.LineString(pts)
	}
	var mp geom.MultiPolygon
	var inners []geom.Ring
	lo := 0
	for _, e := range r.rings {
		// The ring, closed if the way was not: Ring.Canonical in one copy.
		ring := append(make(geom.Ring, 0, e.end-lo+1), r.pts[lo:e.end]...)
		if len(ring) >= 2 && !ring[0].Equal(ring[len(ring)-1]) {
			ring = append(ring, ring[0])
		}
		lo = e.end
		if e.inner {
			inners = append(inners, ring)
		} else {
			mp = append(mp, geom.Polygon{ring})
		}
	}
	for _, in := range inners {
		if len(in) == 0 {
			continue
		}
		for i := range mp {
			if geom.LocatePointInRing(in[0], mp[i][0]) == geom.Inside {
				mp[i] = append(mp[i], in)
				break
			}
		}
	}
	if len(mp) == 1 {
		return mp[0]
	}
	return mp
}
