package osmxml

import (
	"fmt"

	"atgis/internal/coords"
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
// cell, and when that box misses the window it is returned as it is — it
// contains the element's bounds — and the element must not be built.
type Resolver struct {
	topo *Topology
	win  *geom.Box
	cur  NodeCursor
	// s takes the element's positions, a ring per way, and makes its box:
	// a relation's outer members are its parts, its inner members holes.
	s     coords.Sink
	holes []bool // per ring of s: an inner member
	rel   bool   // the element in hand is a relation
	held  int    // how many of s.Pts are bracketed
}

// Resolver returns a resolver over t for a pass under the window win that
// pass 1 was given, or nil. It is not safe for concurrent use; any
// number of them are.
func (t *Topology) Resolver(win *geom.Box) *Resolver {
	return &Resolver{topo: t, win: win, cur: t.nodes.Cursor()}
}

// resolve adds the positions of way i of el to s as its next ring. A
// bracketed node counts its whole cell, or with exact set is converted.
//
//atgis:hotpath
func (r *Resolver) resolve(el *Elements, i int, hole, exact bool) error {
	r.s.Hole = hole
	for _, ref := range el.WayRefs(i) {
		p, ok := r.cur.Get(ref)
		switch {
		case !ok:
			return missingNode(el.Ways[i].ID, ref)
		case p.X == p.X:
			r.s.Add(p)
		case exact:
			r.s.Add(exactNode(r.topo.input, p))
		default:
			lo, _ := nodeCell(p)
			r.s.Pts = append(r.s.Pts, p)
			r.s.AddBracket(lo.X, lo.Y)
			r.held++
		}
	}
	r.s.EndRing()
	r.holes = append(r.holes, hole)
	if r.rel && !hole {
		r.s.EndPart()
	}
	return nil
}

//go:noinline
func missingNode(way, ref int64) error {
	return fmt.Errorf("osmxml: way %d references missing node %d", way, ref)
}

// Way resolves way i of el.
func (r *Resolver) Way(el *Elements, i int) (geom.Box, error) { return r.element(el, i, false) }

// Relation resolves relation i of el: its member ways, wherever pass 1
// found them. Outer members become polygon shells and inner members
// holes, so only the outer ones count towards the box.
func (r *Resolver) Relation(el *Elements, i int) (geom.Box, error) { return r.element(el, i, true) }

// element walks element i of el with its bracketed nodes' cells, and
// again with those nodes converted when the box of the cells meets the
// window.
func (r *Resolver) element(el *Elements, i int, rel bool) (geom.Box, error) {
	err := r.walk(el, i, rel, false)
	if err == nil && r.held > 0 && (r.win == nil || r.s.Box().Intersects(*r.win)) {
		err = r.walk(el, i, rel, true)
	}
	return r.s.Box(), err
}

func (r *Resolver) walk(el *Elements, i int, rel, exact bool) error {
	r.s.Reset(true)
	r.holes, r.rel, r.held = r.holes[:0], rel, 0
	if !rel {
		return r.resolve(el, i, false, exact)
	}
	outers := 0
	for _, m := range el.RelMembers(i) {
		if m.Type != "way" {
			continue
		}
		loc := r.topo.ways[m.Ref]
		if loc.el == nil {
			return fmt.Errorf("osmxml: relation %d references missing way %d", el.Rels[i].ID, m.Ref)
		}
		hole := m.Role == "inner"
		if !hole {
			outers++
		}
		if err := r.resolve(loc.el, loc.i, hole, exact); err != nil {
			return err
		}
	}
	if outers == 0 {
		return fmt.Errorf("osmxml: relation %d has no outer ways", el.Rels[i].ID)
	}
	return nil
}

// Build returns the geometry of the element last resolved. A closed way
// is a polygon (the building/area convention), an open one a linestring;
// a relation is a polygon or multipolygon of its outer members, each
// inner member the hole of the first shell containing it.
func (r *Resolver) Build() geom.Geometry {
	if !r.rel {
		pts := append(make([]geom.Point, 0, len(r.s.Pts)), r.s.Pts...)
		if len(pts) >= 4 && pts[0].Equal(pts[len(pts)-1]) {
			return geom.Polygon{geom.Ring(pts)}
		}
		return geom.LineString(pts)
	}
	var mp geom.MultiPolygon
	var inners []geom.Ring
	lo := 0
	for k, end := range r.s.Rings {
		// The ring, closed if the way was not: Ring.Canonical in one copy.
		ring := append(make(geom.Ring, 0, end-lo+1), r.s.Pts[lo:end]...)
		if len(ring) >= 2 && !ring[0].Equal(ring[len(ring)-1]) {
			ring = append(ring, ring[0])
		}
		lo = end
		if r.holes[k] {
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
