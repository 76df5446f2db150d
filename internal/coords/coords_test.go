package coords

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"atgis/internal/geom"
)

// feed walks g into s the way the parsers do: a list of positions closes
// with EndRing, and every polygon of a MultiPolygon and every member of a
// collection with EndPart. In a bracket walk each position is its integer
// bracket, and feed reports false where the walk gives up.
func feed(s *Sink, g geom.Geometry) bool {
	add := func(p geom.Point) bool {
		if s.Bracketing() {
			return s.AddBracket(math.Floor(p.X), math.Floor(p.Y))
		}
		s.Add(p)
		return true
	}
	list := func(pts []geom.Point) bool {
		for _, p := range pts {
			if !add(p) {
				return false
			}
		}
		s.EndRing()
		return true
	}
	polygon := func(poly geom.Polygon) bool {
		for _, r := range poly {
			if !list(r) {
				return false
			}
		}
		return true
	}
	switch t := g.(type) {
	case geom.PointGeom:
		return add(t.P)
	case geom.LineString:
		return list(t)
	case geom.Polygon:
		return polygon(t)
	case geom.MultiPolygon:
		for _, poly := range t {
			if !polygon(poly) {
				return false
			}
			s.EndPart()
		}
	case geom.Collection:
		for _, m := range t {
			if !feed(s, m) {
				return false
			}
			s.EndPart()
		}
	}
	return true
}

// positions lists g's positions in input order.
func positions(g geom.Geometry) []geom.Point {
	var pts []geom.Point
	if c, ok := g.(geom.Collection); ok {
		for _, m := range c {
			pts = append(pts, positions(m)...)
		}
		return pts
	}
	g.EachPoint(func(p geom.Point) bool { pts = append(pts, p); return true })
	return pts
}

// bracketRun is the running box of the integer brackets of the positions
// a bracket walk counts: every one but those of a polygon's holes.
func bracketRun(g geom.Geometry) geom.Box {
	box := geom.EmptyBox()
	cell := func(p geom.Point) {
		x, y := math.Floor(p.X), math.Floor(p.Y)
		box = box.ExtendPoint(geom.Point{X: x, Y: y}).ExtendPoint(geom.Point{X: x + 1, Y: y + 1})
	}
	var walk func(g geom.Geometry)
	walk = func(g geom.Geometry) {
		switch t := g.(type) {
		case geom.PointGeom:
			cell(t.P)
		case geom.LineString:
			for _, p := range t {
				cell(p)
			}
		case geom.Polygon:
			if len(t) > 0 {
				walk(geom.LineString(t[0]))
			}
		case geom.MultiPolygon:
			for _, poly := range t {
				walk(poly)
			}
		case geom.Collection:
			for _, m := range t {
				walk(m)
			}
		}
	}
	walk(g)
	return box
}

func sameBits(a, b geom.Box) bool {
	return samePoint(geom.Point{X: a.MinX, Y: a.MinY}, geom.Point{X: b.MinX, Y: b.MinY}) &&
		samePoint(geom.Point{X: a.MaxX, Y: a.MaxY}, geom.Point{X: b.MaxX, Y: b.MaxY})
}

func samePoint(p, q geom.Point) bool {
	return math.Float64bits(p.X) == math.Float64bits(q.X) && math.Float64bits(p.Y) == math.Float64bits(q.Y)
}

func hasNaN(g geom.Geometry) bool {
	return slices.ContainsFunc(positions(g), func(p geom.Point) bool { return p.X != p.X || p.Y != p.Y })
}

// check holds the sink to its two modes on g: an exact walk's box is
// g.Bound() bit for bit and it keeps every position in order; a bracket
// walk under win commits exactly when the running box of the counted
// brackets misses win, and then on that box, which contains g.Bound().
func check(t *testing.T, what string, g geom.Geometry, win geom.Box) {
	t.Helper()
	var s Sink
	for _, keep := range []bool{true, false} {
		s.Reset(keep)
		feed(&s, g)
		if got, want := s.Box(), g.Bound(); !sameBits(got, want) {
			t.Fatalf("%s: keep=%v: box %+v, Bound() %+v", what, keep, got, want)
		}
		if want := positions(g); keep && !slices.EqualFunc(s.Pts, want, samePoint) || !keep && len(s.Pts)+len(s.Rings)+len(s.Polys) != 0 {
			t.Fatalf("%s: keep=%v: kept %v, want %v", what, keep, s.Pts, want)
		}
	}
	if hasNaN(g) {
		return // numparse.Bracket brackets no NaN
	}
	s.ResetBracket(win)
	committed := feed(&s, g)
	if run := bracketRun(g); committed == run.Intersects(win) {
		t.Fatalf("%s: under %+v: the bracket walk committed=%v, but its brackets' box is %+v", what, win, committed, run)
	}
	if !committed {
		return
	}
	box, exact := s.Box(), g.Bound()
	if box.Intersects(win) || !exact.IsEmpty() && !box.ContainsBox(exact) {
		t.Fatalf("%s: under %+v: bracket box %+v must contain %+v and miss the window", what, win, box, exact)
	}
}

func TestSinkRules(t *testing.T) {
	negZero := math.Copysign(0, -1)
	inf := math.Inf(1)
	sq := func(x0, y0, x1, y1 float64) geom.Ring {
		return geom.Ring{{X: x0, Y: y0}, {X: x1, Y: y0}, {X: x1, Y: y1}, {X: x0, Y: y1}, {X: x0, Y: y0}}
	}
	cases := map[string]geom.Geometry{
		"point":                 geom.PointGeom{P: geom.Point{X: 1.5, Y: -2.25}},
		"linestring":            geom.LineString{{X: 0.5, Y: 0.5}, {X: 1.25, Y: 1.75}, {X: 2.5, Y: -0.5}},
		"polygon":               geom.Polygon{sq(0, 0, 9.5, 9.5)},
		"inner larger":          geom.Polygon{sq(0, 0, 1, 1), sq(-5, -5, 20, 20)},
		"inner apart":           geom.Polygon{sq(0, 0, 9.5, 9.5), sq(20, 20, 21, 21)},
		"multipolygon":          geom.MultiPolygon{{sq(0, 0, 1, 1)}, {sq(5.5, 5.5, 6, 6), sq(5.6, 5.6, 5.9, 5.9)}},
		"multipolygon of one":   geom.MultiPolygon{{sq(3, 3, 4, 4)}},
		"±0 touching parts":     geom.MultiPolygon{{sq(0, 0, 1, 1)}, {sq(negZero, negZero, 1, 1)}},
		"±0 touching, reversed": geom.MultiPolygon{{sq(negZero, -1, negZero, negZero)}, {sq(0, 0, 1, 1)}},
		"±0 in one ring":        geom.Polygon{{{X: 0, Y: negZero}, {X: negZero, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: negZero}}},
		"±Inf":                  geom.LineString{{X: -inf, Y: 0}, {X: 1, Y: inf}},
		"±Inf parts":            geom.MultiPolygon{{sq(inf, inf, inf, inf)}, {sq(-inf, 0, 1, 1)}},
		"empty parts": geom.MultiPolygon{
			{}, {geom.Ring{}}, {sq(2, 2, 3, 3)}, {geom.Ring{}, sq(7, 7, 8, 8)},
		},
		"empty shell":      geom.Polygon{geom.Ring{}, sq(0, 0, 1, 1)},
		"empty linestring": geom.LineString{},
		"collection": geom.Collection{
			geom.PointGeom{P: geom.Point{X: 3, Y: 4}},
			geom.LineString{{X: -0.5, Y: negZero}, {X: 1, Y: 1}},
			geom.Polygon{sq(2, 2, 3, 3), sq(-9, -9, 9, 9)},
			geom.MultiPolygon{{sq(10, 10, 11, 11)}, {}},
		},
		"nested collection": geom.Collection{
			geom.Collection{geom.PointGeom{P: geom.Point{X: negZero, Y: 0}}, geom.Collection{}},
			geom.PointGeom{P: geom.Point{X: 0, Y: negZero}},
			geom.Collection{geom.LineString{}},
		},
		"empty collection": geom.Collection{},
	}
	windows := []geom.Box{
		{MinX: 100, MinY: 100, MaxX: 110, MaxY: 110},
		{MinX: 20.25, MinY: 20.25, MaxX: 20.5, MaxY: 20.5}, // inside "inner apart"'s hole only
		{MinX: -1, MinY: -1, MaxX: 0.5, MaxY: 0.5},
		{MinX: 1.75, MinY: -1.9, MaxX: 1.9, MaxY: -1.5}, // misses the point, meets its brackets
		{MinX: -10, MinY: -10, MaxX: 10, MaxY: 10},
	}
	for name, g := range cases {
		for _, win := range windows {
			check(t, name, g, win)
		}
	}
	var s Sink
	s.ResetBracket(windows[1])
	if !feed(&s, cases["inner apart"]) {
		t.Error("a window inside a hole only: the hole's brackets counted toward the box")
	}
}

// palette is what a fuzzed coordinate is: the values a box rule can trip
// on — signed zeros, infinities, NaN, halves and integers, the extremes.
var palette = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 2.25, -2.75, 10, -10, 179.99999999999997,
	1e300, -1e300, math.Inf(1), math.Inf(-1), math.NaN(),
}

// decoder reads a geometry and a window from fuzz bytes, each count and
// each coordinate one byte; it reads zeros once they run out.
type decoder struct{ b []byte }

func (d *decoder) next() int {
	if len(d.b) == 0 {
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return int(c)
}

func (d *decoder) num() float64 { return palette[d.next()%len(palette)] }

func (d *decoder) point() geom.Point { return geom.Point{X: d.num(), Y: d.num()} }

func (d *decoder) points() []geom.Point {
	pts := make([]geom.Point, d.next()%6)
	for i := range pts {
		pts[i] = d.point()
	}
	return pts
}

func (d *decoder) polygon() geom.Polygon {
	poly := make(geom.Polygon, d.next()%3)
	for i := range poly {
		poly[i] = d.points()
	}
	return poly
}

func (d *decoder) geometry(depth int) geom.Geometry {
	switch d.next() % 5 {
	case 0:
		return geom.PointGeom{P: d.point()}
	case 1:
		return geom.LineString(d.points())
	case 2:
		return d.polygon()
	case 3:
		mp := make(geom.MultiPolygon, d.next()%4)
		for i := range mp {
			mp[i] = d.polygon()
		}
		return mp
	default:
		if depth > 2 {
			return geom.Collection{}
		}
		c := make(geom.Collection, d.next()%4)
		for i := range c {
			c[i] = d.geometry(depth + 1)
		}
		return c
	}
}

// FuzzSink is TestSinkRules on arbitrary geometries and windows.
func FuzzSink(f *testing.F) {
	f.Add([]byte{3, 2, 1, 4, 0, 0, 2, 0, 2, 2, 2, 1, 1, 4, 1, 0, 0, 4, 4})
	f.Add([]byte{4, 3, 2, 1, 3, 13, 14, 0, 5, 1, 7, 1, 3, 2, 0, 2, 2, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &decoder{data}
		g := d.geometry(0)
		win := geom.BoxOf(d.point(), d.point())
		if win.IsEmpty() || math.IsNaN(win.MinX+win.MinY+win.MaxX+win.MaxY) {
			win = geom.Box{MinX: 0.3, MinY: 0.3, MaxX: 1.7, MaxY: 1.7}
		}
		check(t, fmt.Sprintf("%#v", g), g, win)
	})
}
