package geojson

import (
	"atgis/internal/at"
	"atgis/internal/geom"
	"atgis/internal/lexer"
	"atgis/internal/numparse"
)

// The fused coordinate path. Most bytes of a GeoJSON file sit inside
// "coordinates" values, where only [ ] , whitespace and numbers can
// occur. Lexing them into tokens and pushing a frame per position costs
// several times what reading them does, so a machine that sees the
// coordinates root of a resolved geometry open — any geometry of a
// resolved machine, the geometry of an anchored feature in a speculative
// one — parses the whole value here instead: one pass
// over the bytes, one numparse call per number, nesting kept in counters.
// The scanner accepts only regular values — every position at the same
// depth (at most MultiPolygon's), at least two numbers per position, no
// empty arrays below the root — and gives up on anything else, including
// the end of the scan range, having touched nothing but its scratch, so
// the token path parses the value as if the scanner had never run.

// scan lexes input[from:to) into the machine, starting in lexer state q,
// and returns the lexer's finishing state. It is how every machine is
// driven, resolved or speculative. The scanner only ever skips a value
// without quotes, so that state is SummarizeJSON's of the same bytes.
func (m *Machine) scan(q at.State, from, to int64) at.State {
	m.scanEnd = to
	return lexer.ScanJSONResume(q, m.input[from:to], from, m.step)
}

// step is OnToken for scan: it hands a coordinates root that just opened
// to the fused scanner and tells the lexer where to resume.
//
//atgis:hotpath
func (m *Machine) step(tok lexer.Token) int64 {
	m.OnToken(tok)
	switch tok.Kind {
	case lexer.KindArrOpen:
		return m.coordsRoot(tok.Off + 1)
	case lexer.KindObjClose, lexer.KindArrClose:
		if len(m.frames) == 0 && (m.single || m.patBase && m.baseClose >= 0) {
			return m.scanEnd
		}
	}
	return 0
}

// coordsRoot runs the fused scanner when the innermost frame is a
// coordinates root whose '[' precedes pos. On success the value is
// committed to its geometry builder, the root frame is popped and the
// offset just past the closing ']' is returned; otherwise 0, with the
// machine exactly as the open token left it.
//
//atgis:hotpath
func (m *Machine) coordsRoot(pos int64) int64 {
	n := len(m.frames)
	if n < 2 || m.frames[n-1].sem != semCoord || m.frames[n-2].sem == semCoord ||
		m.cfg.tokenOnly || m.err != nil {
		return 0
	}
	g := m.frames[n-1].geo
	// Members of a GeometryCollection always materialise: the collection
	// is assembled from built members whatever the feature's fate.
	member := m.frames[n-2].geoParentList != nil
	keep, win := true, (*geom.Box)(nil)
	if !member {
		keep, win = !m.cfg.BoundsOnly, m.cfg.Window
	}
	next, ok := int64(0), false
	if win != nil && m.cfg.BracketReject {
		next, ok = m.scanCoords(g, pos, false, win, true)
	}
	if !ok {
		next, ok = m.scanCoords(g, pos, keep, win, false)
	}
	if !ok {
		return 0
	}
	m.frames = m.frames[:n-1]
	m.gapStart = next
	return next
}

// scannedBox returns the box of the geometry buildGeo makes of scanned
// coordinates: empty when a declared type disagrees with their depth.
func (g *geoBuild) scannedBox() geom.Box {
	if g.kind >= kindPoint && g.kind <= kindMultiPolygon && uint8(g.kind) != g.depth {
		return geom.EmptyBox()
	}
	return g.box
}

// scanCoords parses the coordinates value whose opening '[' precedes pos
// and commits it to g: the nesting depth, the bounding box m.sink makes of
// its positions, and the root level. The positions are kept only when keep
// is set, and copied out into the level only when the box meets win (nil =
// any box does): a box that misses the window rejects the feature whatever
// its type turns out to be. It reports the offset just past the closing
// ']'. ok is false when the value is not regular or does not close before
// m.scanEnd; g is then untouched.
//
// With bracket set (keep clear, win set) every number is read only to its
// integer part, numparse.Bracket's lo, and the sink walks on the brackets
// under win. The scan gives up (ok false) where the sink does and on any
// number Bracket cannot certify, leaving the value to the exact walk; a
// value it commits is rejected, with no mantissa converted, on a box that
// contains the exact one.
//
//atgis:hotpath
func (m *Machine) scanCoords(g *geoBuild, pos int64, keep bool, win *geom.Box, bracket bool) (next int64, ok bool) {
	b := m.input[:m.scanEnd]
	i := int(pos)
	s := &m.sink
	if bracket {
		s.ResetBracket(*win)
	} else {
		s.Reset(keep)
	}
	depth := 1        // open arrays, the root included
	leaf := 0         // depth at which numbers occur, 0 until the first number
	nums := 0         // numbers seen in the innermost array
	var x, y float64  // in bracket mode the low ends of their brackets
	wantValue := true // after '[' or ',': a value (or an empty root's ']') follows
	opened := true    // the previous significant byte was '['
	for depth > 0 {
		for i < len(b) && isSpace(b[i]) {
			i++
		}
		if i >= len(b) {
			return 0, false
		}
		c := b[i]
		if wantValue {
			switch c {
			case '[':
				depth++
				if depth > 4 || (leaf != 0 && depth > leaf) {
					return 0, false
				}
				nums = 0
				opened = true
				i++
			case ']':
				// An empty array: only the root may be one.
				if !opened || depth != 1 {
					return 0, false
				}
				depth = 0
				i++
			default:
				if leaf == 0 {
					leaf = depth
				} else if depth != leaf {
					return 0, false
				}
				var v float64
				var n int
				var numOK bool
				if bracket {
					v, n, numOK = numparse.Bracket(b[i:])
				} else {
					v, n, numOK = numparse.Prefix(b[i:])
				}
				if !numOK {
					return 0, false
				}
				switch nums {
				case 0:
					x = v
				case 1:
					y = v
				}
				nums++
				i += n
				wantValue, opened = false, false
			}
			continue
		}
		switch c {
		case ',':
			wantValue = true
		case ']':
			// leaf-depth tells what the closing array holds.
			switch {
			case leaf == depth: // a position; a Point's is the root
				if nums < 2 {
					if depth > 1 {
						return 0, false
					}
				} else if bracket {
					if !s.AddBracket(x, y) {
						return 0, false
					}
				} else {
					s.Add(geom.Point{X: x, Y: y})
				}
			case depth == 1: // any other root closes nothing
			case leaf == depth+1: // a ring
				s.EndRing()
			default: // a polygon
				s.EndPart()
			}
			depth--
		default:
			return 0, false
		}
		i++
	}

	// Commit: the value is accepted.
	if g.root != nil {
		m.releaseLvl(g.root) // a duplicate "coordinates" member replaces the first
	}
	g.root, g.rootX, g.rootY, g.rootN = nil, 0, 0, 0
	g.depth = uint8(max(leaf, 1))
	g.box = s.Box()
	if leaf == 1 {
		g.rootX, g.rootY, g.rootN = x, y, uint8(min(nums, 255))
	}
	if leaf >= 2 && keep && (win == nil || g.box.Intersects(*win)) {
		g.root = m.coordLevel(leaf, s.Pts, s.Rings, s.Polys)
	}
	return int64(i), true
}

// coordLevel copies the scanned positions out into the root level the
// token path would have accumulated: the positions of a LineString, the
// rings of a Polygon, the polygons of a MultiPolygon. One allocation
// holds all positions and one all rings; rings and polygons are
// capacity-limited windows into them.
func (m *Machine) coordLevel(leaf int, pts []geom.Point, rings, polys []int) *coordLevel {
	lvl := m.newLvl()
	if leaf == 2 {
		lvl.pts = append(lvl.pts, pts...)
		return lvl
	}
	all := make([]geom.Point, len(pts))
	copy(all, pts)
	if leaf == 3 {
		lo := 0
		for _, hi := range rings {
			lvl.rings = append(lvl.rings, geom.Ring(all[lo:hi:hi]))
			lo = hi
		}
		return lvl
	}
	allRings := make([]geom.Ring, len(rings))
	lo := 0
	for r, hi := range rings {
		allRings[r] = all[lo:hi:hi]
		lo = hi
	}
	lo = 0
	for _, hi := range polys {
		lvl.polys = append(lvl.polys, geom.Polygon(allRings[lo:hi:hi]))
		lo = hi
	}
	return lvl
}
