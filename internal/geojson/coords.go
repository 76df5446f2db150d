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

// scannedBox returns the bounding box of the geometry buildGeo makes of
// scanned coordinates. A declared type that disagrees with the nesting
// depth builds an empty geometry (or none), whose box is empty.
func (g *geoBuild) scannedBox() geom.Box {
	want := uint8(0) // untyped or unknown: inferred from the depth
	switch g.kind {
	case kindPoint:
		want = 1
	case kindLineString:
		want = 2
	case kindPolygon:
		want = 3
	case kindMultiPolygon:
		want = 4
	}
	if want != 0 && want != g.depth {
		return geom.EmptyBox()
	}
	return g.box
}

// scanCoords parses the coordinates value whose opening '[' precedes pos
// and commits it to g: the nesting depth, the bounding box and the root
// level. The positions are copied out into the level only when keep is
// set and the box meets win (nil = any box does): a box that misses the
// window rejects the feature whatever its type turns out to be — a type
// that disagrees with the depth has the empty box. It reports the offset
// just past the closing ']'. ok is false when the value is not regular or
// does not close before m.scanEnd; g is then untouched.
//
// The box follows geom's Bound rules so that it equals the built
// geometry's bit for bit: every position of a LineString, the outer ring
// of a Polygon, the union of the outer rings' boxes of a MultiPolygon.
//
// With bracket set (keep clear, win set) every number is read only to its
// integer part: numparse.Bracket's lo, the value lying in [lo, lo+1].
// Each position is then the box of its brackets, and the walk commits
// only a value whose box of those misses win: g.box then contains the
// exact box and misses win too, so the feature is rejected as the exact
// walk would reject it, with no mantissa converted. ringBox runs across
// a MultiPolygon's polygons, as the running box of every outer position,
// and the walk gives up (ok false) on the first position that brings it
// into win — the box only grows — and on any number Bracket cannot
// certify, leaving the value to the exact walk.
//
//atgis:hotpath
func (m *Machine) scanCoords(g *geoBuild, pos int64, keep bool, win *geom.Box, bracket bool) (next int64, ok bool) {
	b := m.input[:m.scanEnd]
	i := int(pos)
	pts, rings, polys := m.coordPts[:0], m.coordRings[:0], m.coordPolys[:0]
	depth := 1       // open arrays, the root included
	leaf := 0        // depth at which numbers occur, 0 until the first number
	nums := 0        // numbers seen in the innermost array
	var x, y float64 // in bracket mode the low ends of their brackets
	ringBox, box := geom.EmptyBox(), geom.EmptyBox()
	outer := true     // the current ring is its polygon's first
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
			// leaf-depth tells what the closing array holds; the root
			// (depth 1) is the geometry itself and closes nothing.
			switch {
			case depth == 1:
			case leaf == depth: // a position
				if nums < 2 {
					return 0, false
				}
				p := geom.Point{X: x, Y: y}
				if outer {
					ringBox = ringBox.ExtendPoint(p)
					if bracket {
						ringBox = ringBox.ExtendPoint(geom.Point{X: x + 1, Y: y + 1})
						if ringBox.Intersects(*win) {
							return 0, false
						}
					}
				}
				if keep {
					pts = append(pts, p)
				}
			case leaf == depth+1: // a ring
				rings = append(rings, len(pts))
				outer = false
			default: // a polygon
				polys = append(polys, len(rings))
				if !bracket {
					box = box.Union(ringBox)
					ringBox = geom.EmptyBox()
				}
				outer = true
			}
			depth--
		default:
			return 0, false
		}
		i++
	}

	var gbox geom.Box
	switch {
	case leaf == 0: // empty root
		gbox = geom.EmptyBox()
	case leaf == 1:
		gbox = geom.EmptyBox()
		if nums >= 2 {
			gbox = geom.BoxOf(geom.Point{X: x, Y: y})
			if bracket {
				gbox = gbox.ExtendPoint(geom.Point{X: x + 1, Y: y + 1})
			}
		}
	case leaf <= 3 || bracket:
		gbox = ringBox
	default:
		gbox = box
	}
	if bracket && gbox.Intersects(*win) {
		return 0, false
	}

	// Commit: the value is accepted.
	m.coordPts, m.coordRings, m.coordPolys = pts, rings, polys
	if g.root != nil {
		m.releaseLvl(g.root) // a duplicate "coordinates" member replaces the first
	}
	g.root, g.rootX, g.rootY, g.rootN = nil, 0, 0, 0
	g.depth = uint8(max(leaf, 1))
	g.box = gbox
	if leaf == 1 {
		g.rootX, g.rootY, g.rootN = x, y, uint8(min(nums, 255))
	}
	if leaf >= 2 && keep && (win == nil || g.box.Intersects(*win)) {
		g.root = m.coordLevel(leaf, pts, rings, polys)
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
