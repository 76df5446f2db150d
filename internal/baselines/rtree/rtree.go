// Package rtree is the indexed-RDBMS baseline (PostGIS / DBMS-X stand-in,
// paper §2.3 and Fig. 10): spatial queries are fast only after an
// explicit load + index phase, which is exactly the data-to-query cost
// AT-GIS avoids. The index is an STR-packed R-tree over feature MBRs.
package rtree

import (
	"math"
	"sort"
	"time"

	"atgis/internal/geom"
)

// Item is one indexed object.
type Item struct {
	Box geom.Box
	ID  int64
	// Geom is retained for full-geometry refinement ("-G" mode); box-only
	// ("-B" mode) queries ignore it.
	Geom geom.Geometry
}

// node is an R-tree node.
type node struct {
	box      geom.Box
	children []*node
	items    []Item // leaf payload
}

// Tree is a static STR-packed R-tree.
type Tree struct {
	root    *node
	fanout  int
	LoadDur time.Duration // the paper's loading/indexing phase cost
}

// Build bulk-loads items with the Sort-Tile-Recursive packing.
func Build(items []Item, fanout int) *Tree {
	start := time.Now()
	if fanout < 2 {
		fanout = 16
	}
	t := &Tree{fanout: fanout}
	if len(items) == 0 {
		t.root = &node{box: geom.EmptyBox()}
		t.LoadDur = time.Since(start)
		return t
	}
	// Leaf level: STR tiling.
	leaves := packLeaves(items, fanout)
	level := leaves
	for len(level) > 1 {
		level = packNodes(level, fanout)
	}
	t.root = level[0]
	t.LoadDur = time.Since(start)
	return t
}

func packLeaves(items []Item, fanout int) []*node {
	sorted := make([]Item, len(items))
	copy(sorted, items)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].Box.Center().X < sorted[j].Box.Center().X
	})
	sliceCount := int(math.Ceil(math.Sqrt(float64(len(sorted)) / float64(fanout))))
	if sliceCount < 1 {
		sliceCount = 1
	}
	sliceSize := (len(sorted) + sliceCount - 1) / sliceCount
	var leaves []*node
	for s := 0; s < len(sorted); s += sliceSize {
		end := s + sliceSize
		if end > len(sorted) {
			end = len(sorted)
		}
		slice := sorted[s:end]
		sort.Slice(slice, func(i, j int) bool {
			return slice[i].Box.Center().Y < slice[j].Box.Center().Y
		})
		for o := 0; o < len(slice); o += fanout {
			e := o + fanout
			if e > len(slice) {
				e = len(slice)
			}
			leaf := &node{items: append([]Item(nil), slice[o:e]...), box: geom.EmptyBox()}
			for _, it := range leaf.items {
				leaf.box = leaf.box.Union(it.Box)
			}
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

func packNodes(level []*node, fanout int) []*node {
	sort.Slice(level, func(i, j int) bool {
		return level[i].box.Center().X < level[j].box.Center().X
	})
	var out []*node
	for o := 0; o < len(level); o += fanout {
		e := o + fanout
		if e > len(level) {
			e = len(level)
		}
		n := &node{children: append([]*node(nil), level[o:e]...), box: geom.EmptyBox()}
		for _, c := range n.children {
			n.box = n.box.Union(c.box)
		}
		out = append(out, n)
	}
	return out
}

// Search invokes fn for every item whose MBR intersects q.
func (t *Tree) Search(q geom.Box, fn func(Item) bool) {
	if t.root == nil {
		return
	}
	search(t.root, q, fn)
}

func search(n *node, q geom.Box, fn func(Item) bool) bool {
	if !n.box.Intersects(q) {
		return true
	}
	for _, it := range n.items {
		if it.Box.Intersects(q) {
			if !fn(it) {
				return false
			}
		}
	}
	for _, c := range n.children {
		if !search(c, q, fn) {
			return false
		}
	}
	return true
}

// Engine is the loaded-database query engine.
type Engine struct {
	Tree *Tree
	// Refine enables full-geometry comparison (the "-G" configurations);
	// disabled it reproduces the box-only "-B" configurations.
	Refine bool
}

// QueryResult mirrors the single-pass query aggregates.
type QueryResult struct {
	Count        int64
	SumArea      float64
	SumPerimeter float64
	IDs          []int64
}

// Containment selects all objects intersecting the reference polygon.
func (e *Engine) Containment(ref geom.Geometry) QueryResult {
	var r QueryResult
	refBox := ref.Bound()
	e.Tree.Search(refBox, func(it Item) bool {
		if e.Refine && !geom.Intersects(it.Geom, ref) {
			return true
		}
		r.Count++
		r.IDs = append(r.IDs, it.ID)
		return true
	})
	return r
}

// Aggregation selects and summarises area and perimeter.
func (e *Engine) Aggregation(ref geom.Geometry, dist geom.DistanceMethod) QueryResult {
	var r QueryResult
	refBox := ref.Bound()
	e.Tree.Search(refBox, func(it Item) bool {
		if e.Refine && !geom.Intersects(it.Geom, ref) {
			return true
		}
		r.Count++
		r.SumArea += geom.SphericalArea(it.Geom)
		r.SumPerimeter += geom.Perimeter(it.Geom, dist)
		return true
	})
	return r
}

// JoinPair is one join result.
type JoinPair struct{ AID, BID int64 }

// Join probes the index with every outer item. maxPairs caps the result
// to model the paper's observation that the RDBMS joins do not complete
// at scale (capped runs report completed=false).
func (e *Engine) Join(outer []Item, maxPairs int) (pairs []JoinPair, completed bool) {
	completed = true
	for _, o := range outer {
		e.Tree.Search(o.Box, func(it Item) bool {
			if e.Refine && !geom.Intersects(o.Geom, it.Geom) {
				return true
			}
			pairs = append(pairs, JoinPair{AID: o.ID, BID: it.ID})
			if maxPairs > 0 && len(pairs) >= maxPairs {
				completed = false
				return false
			}
			return true
		})
		if !completed {
			break
		}
	}
	return pairs, completed
}
