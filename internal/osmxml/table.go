package osmxml

import (
	"sort"

	"atgis/internal/geom"
)

// NodeTable maps node ids to positions: the temporary table between the
// two passes (paper §4.4(1)), built in bulk as sorted columns rather than
// by point insertion. Pass 1 workers fill a block's columns with no
// shared state; the ordered fold hands each block's columns over
// (Append), keeping them as one chunk of the table — nothing is copied
// or rehashed. Planet-style files list nodes in ascending id order, so
// the chunks are already one sorted sequence; Freeze checks that (the
// workers and Append track it) and only when it fails sorts once, stably,
// the last of equal ids winning as a map insert would have. After Freeze
// the table is immutable and lookups are plain reads.
type NodeTable struct {
	chunks []nodeChunk
	// firsts[i] is chunks[i].ids[0] once frozen: the chunk search key.
	firsts []int64
	// unsorted records that some id did not exceed its predecessor.
	unsorted bool
	last     int64
	n        int
}

type nodeChunk struct {
	ids []int64
	pts []geom.Point
}

// NewNodeTable returns an empty table.
func NewNodeTable() *NodeTable { return &NodeTable{} }

// Append adds one block's node columns, in input order, and keeps them:
// the caller must not write to them again. ascending says that ids is
// strictly ascending.
func (t *NodeTable) Append(ids []int64, pts []geom.Point, ascending bool) {
	if len(ids) == 0 {
		return
	}
	if !ascending || (t.n > 0 && ids[0] <= t.last) {
		t.unsorted = true
	}
	t.chunks = append(t.chunks, nodeChunk{ids, pts})
	t.last = ids[len(ids)-1]
	t.n += len(ids)
}

// Put adds one node.
func (t *NodeTable) Put(id int64, p geom.Point) {
	if len(t.chunks) == 0 {
		t.chunks = append(t.chunks, nodeChunk{})
	}
	if t.n > 0 && id <= t.last {
		t.unsorted = true
	}
	c := &t.chunks[len(t.chunks)-1]
	c.ids = append(c.ids, id)
	c.pts = append(c.pts, p)
	t.last = id
	t.n++
}

// Freeze ends the build: lookups are valid from here on, from any number
// of goroutines, and Put and Append are not.
func (t *NodeTable) Freeze() {
	if t.unsorted {
		t.sort()
	}
	t.firsts = make([]int64, len(t.chunks))
	for i, c := range t.chunks {
		t.firsts[i] = c.ids[0]
	}
}

// sort rebuilds the table as one chunk in ascending id order, keeping the
// last position given for an id.
func (t *NodeTable) sort() {
	all := nodeChunk{make([]int64, 0, t.n), make([]geom.Point, 0, t.n)}
	for _, c := range t.chunks {
		all.ids = append(all.ids, c.ids...)
		all.pts = append(all.pts, c.pts...)
	}
	sort.Stable(byID(all))
	w := 0
	for i := range all.ids {
		if i+1 < len(all.ids) && all.ids[i+1] == all.ids[i] {
			continue
		}
		all.ids[w], all.pts[w] = all.ids[i], all.pts[i]
		w++
	}
	t.chunks = []nodeChunk{{all.ids[:w], all.pts[:w]}}
	t.unsorted, t.n = false, w
}

type byID nodeChunk

func (c byID) Len() int           { return len(c.ids) }
func (c byID) Less(i, j int) bool { return c.ids[i] < c.ids[j] }
func (c byID) Swap(i, j int) {
	c.ids[i], c.ids[j] = c.ids[j], c.ids[i]
	c.pts[i], c.pts[j] = c.pts[j], c.pts[i]
}

// NodeCursor is one reader's position in a frozen table. A way's refs are
// runs of neighbouring nodes, so a lookup first tries the entry after the
// previous hit and only then searches.
type NodeCursor struct {
	t    *NodeTable
	c, i int // chunk and index of the previous hit
}

// Cursor returns a reader positioned before the first node.
func (t *NodeTable) Cursor() NodeCursor { return NodeCursor{t: t, i: -1} }

// Get looks up a node.
//
//atgis:hotpath
func (cur *NodeCursor) Get(id int64) (geom.Point, bool) {
	t := cur.t
	if cur.c < len(t.chunks) {
		c := &t.chunks[cur.c]
		if i := cur.i + 1; i < len(c.ids) && c.ids[i] == id {
			cur.i = i
			return c.pts[i], true
		}
	}
	// The chunk that would hold id is the last one starting at or below it.
	ci := upperBound(t.firsts, id) - 1
	if ci < 0 {
		return geom.Point{}, false
	}
	c := &t.chunks[ci]
	i := upperBound(c.ids, id) - 1
	if i < 0 || c.ids[i] != id {
		return geom.Point{}, false
	}
	cur.c, cur.i = ci, i
	return c.pts[i], true
}

// upperBound returns the number of leading elements of the ascending s
// that are at most v.
func upperBound(s []int64, v int64) int {
	lo, hi := 0, len(s)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s[m] <= v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}
