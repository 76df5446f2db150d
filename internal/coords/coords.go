// Package coords turns the positions a parser reads into a feature's
// bounding box, one rule for every format: the grammar stays in each
// format's package (structural parsing apart from the point parser, paper
// §4.4(1)) and hands a Sink every position, ring end and part end. In an
// exact walk the box is the Bound() of the geometry the positions build,
// bit for bit: every position of a LineString, the shell of a Polygon, the
// union of the parts of a MultiPolygon or a collection, built with
// geom.Box.Union as geom builds it. In a bracket walk each position is
// known only to lie in [x, x+1]×[y, y+1] (numparse.Bracket), the box is
// the running box of those cells, and the walk gives up on the first
// position that brings it into the window: a box it commits contains the
// exact one and misses the window, so it rejects as the exact walk would.
package coords

import "atgis/internal/geom"

// Sink accumulates one geometry's positions and its box; Reset or
// ResetBracket starts every walk.
type Sink struct {
	// The scratch, recorded only under Reset's keep: the positions in
	// input order, the end in Pts of every ring and in Rings of every part.
	Pts   []geom.Point
	Rings []int
	Polys []int
	// Hole marks the ring in hand as a hole: its positions count toward no
	// box. EndRing sets it and EndPart clears it; a caller whose rings say
	// their role sets it before each ring.
	Hole bool

	keep    bool
	bracket bool
	part    geom.Box // the part in hand; in a bracket walk the running box
	box     geom.Box // the union of the closed parts
	parts   int      // how many parts closed
	// The window of a bracket walk, an edge a field: through a geom.Box
	// each read costs AddBracket an inlining node it cannot spare.
	minX, minY, maxX, maxY float64
}

// Reset starts an exact walk, recording the scratch if keep is set.
//
//atgis:hotpath
func (s *Sink) Reset(keep bool) {
	s.Pts, s.Rings, s.Polys = s.Pts[:0], s.Rings[:0], s.Polys[:0]
	s.Hole, s.keep, s.bracket = false, keep, false
	s.part, s.box, s.parts = geom.EmptyBox(), geom.EmptyBox(), 0
}

// ResetBracket starts a bracket walk under the window win.
//
//atgis:hotpath
func (s *Sink) ResetBracket(win geom.Box) {
	s.Reset(false)
	s.bracket = true
	s.minX, s.minY, s.maxX, s.maxY = win.MinX, win.MinY, win.MaxX, win.MaxY
}

// Bracketing reports whether the walk in hand is a bracket walk.
//
//atgis:hotpath
func (s *Sink) Bracketing() bool { return s.bracket }

// Add counts the position p.
//
//atgis:hotpath
func (s *Sink) Add(p geom.Point) {
	if s.keep {
		s.Pts = append(s.Pts, p)
	}
	if !s.Hole {
		s.part = s.part.ExtendPoint(p)
	}
}

// AddBracket counts a position that lies in [x, x+1]×[y, y+1], records
// nothing, and reports whether the running box still misses the window:
// false tells a bracket walk to give up. An exact walk may count such a
// cell too (OSM XML's unconverted nodes); its box then only bounds the
// geometry's, and the report means nothing.
//
//atgis:hotpath
func (s *Sink) AddBracket(x, y float64) bool {
	if s.Hole {
		return true
	}
	r := &s.part
	if x < r.MinX {
		r.MinX = x
	}
	if x++; x > r.MaxX {
		r.MaxX = x
	}
	if y < r.MinY {
		r.MinY = y
	}
	if y++; y > r.MaxY {
		r.MaxY = y
	}
	return r.MaxX < s.minX || s.maxX < r.MinX || r.MaxY < s.minY || s.maxY < r.MinY
}

// EndRing closes a ring or a LineString; the part's next ring is a hole.
//
//atgis:hotpath
func (s *Sink) EndRing() {
	if s.keep {
		s.Rings = append(s.Rings, len(s.Pts))
	}
	s.Hole = true
}

// EndPart closes a part of a MultiPolygon or a collection, whose box
// joins the union; a geometry that closes none is one part. A bracket
// walk's running box goes on across parts.
//
//atgis:hotpath
func (s *Sink) EndPart() {
	if s.keep {
		s.Polys = append(s.Polys, len(s.Rings))
	}
	s.Hole = false
	if !s.bracket {
		s.box = s.box.Union(s.part)
		s.part = geom.EmptyBox()
		s.parts++
	}
}

// Box returns the box of the walk so far.
//
//atgis:hotpath
func (s *Sink) Box() geom.Box {
	if s.parts == 0 {
		return s.part
	}
	return s.box
}
