package geom

// Box clipping, part of the test-only operator catalogue (see
// operators_test.go): no query clips.

// ClipRingToBox clips a ring to an axis-aligned box using the
// Sutherland–Hodgman algorithm. The result may be empty. Box clipping is
// the fast path for containment queries whose reference region is an MBR.
func ClipRingToBox(r Ring, b Box) Ring {
	if len(r) == 0 || b.IsEmpty() {
		return nil
	}
	in := append(Ring(nil), r.Canonical()...)
	if len(in) > 1 && in[0].Equal(in[len(in)-1]) {
		in = in[:len(in)-1] // work open, close at the end
	}
	type edgeFn struct {
		inside func(Point) bool
		cross  func(a, c Point) Point
	}
	edges := []edgeFn{
		{ // left
			func(p Point) bool { return p.X >= b.MinX },
			func(a, c Point) Point {
				t := (b.MinX - a.X) / (c.X - a.X)
				return Point{b.MinX, a.Y + t*(c.Y-a.Y)}
			},
		},
		{ // right
			func(p Point) bool { return p.X <= b.MaxX },
			func(a, c Point) Point {
				t := (b.MaxX - a.X) / (c.X - a.X)
				return Point{b.MaxX, a.Y + t*(c.Y-a.Y)}
			},
		},
		{ // bottom
			func(p Point) bool { return p.Y >= b.MinY },
			func(a, c Point) Point {
				t := (b.MinY - a.Y) / (c.Y - a.Y)
				return Point{a.X + t*(c.X-a.X), b.MinY}
			},
		},
		{ // top
			func(p Point) bool { return p.Y <= b.MaxY },
			func(a, c Point) Point {
				t := (b.MaxY - a.Y) / (c.Y - a.Y)
				return Point{a.X + t*(c.X-a.X), b.MaxY}
			},
		},
	}
	for _, e := range edges {
		if len(in) == 0 {
			return nil
		}
		var out Ring
		prev := in[len(in)-1]
		prevIn := e.inside(prev)
		for _, cur := range in {
			curIn := e.inside(cur)
			switch {
			case curIn && prevIn:
				out = append(out, cur)
			case curIn && !prevIn:
				out = append(out, e.cross(prev, cur), cur)
			case !curIn && prevIn:
				out = append(out, e.cross(prev, cur))
			}
			prev, prevIn = cur, curIn
		}
		in = out
	}
	if len(in) < 3 {
		return nil
	}
	return in.Canonical()
}

// ClipPolygonToBox clips every ring of the polygon to the box. Holes that
// survive clipping are preserved.
func ClipPolygonToBox(p Polygon, b Box) Polygon {
	if len(p) == 0 {
		return nil
	}
	outer := ClipRingToBox(p[0], b)
	if outer == nil {
		return nil
	}
	out := Polygon{outer}
	for _, hole := range p[1:] {
		if h := ClipRingToBox(hole, b); h != nil {
			out = append(out, h)
		}
	}
	return out
}

// ClipToBox clips any geometry to a box. Linestrings are cut into the
// contained sub-segments; points pass through iff contained.
func ClipToBox(g Geometry, b Box) Geometry {
	switch t := g.(type) {
	case PointGeom:
		if b.ContainsPoint(t.P) {
			return t
		}
		return nil
	case LineString:
		parts := clipLineToBox(t, b)
		switch len(parts) {
		case 0:
			return nil
		case 1:
			return parts[0]
		default:
			out := make(Collection, len(parts))
			for i, p := range parts {
				out[i] = p
			}
			return out
		}
	case Polygon:
		p := ClipPolygonToBox(t, b)
		if p == nil {
			return nil
		}
		return p
	case MultiPolygon:
		var out MultiPolygon
		for _, poly := range t {
			if c := ClipPolygonToBox(poly, b); c != nil {
				out = append(out, c)
			}
		}
		if len(out) == 0 {
			return nil
		}
		return out
	case Collection:
		var out Collection
		for _, m := range t {
			if c := ClipToBox(m, b); c != nil {
				out = append(out, c)
			}
		}
		if len(out) == 0 {
			return nil
		}
		return out
	default:
		return nil
	}
}

func clipLineToBox(ls LineString, b Box) []LineString {
	var out []LineString
	var cur LineString
	flush := func() {
		if len(cur) >= 2 {
			out = append(out, cur)
		}
		cur = nil
	}
	for i := 0; i+1 < len(ls); i++ {
		a, c := ls[i], ls[i+1]
		ca, cc, ok := clipSegmentToBox(a, c, b)
		if !ok {
			flush()
			continue
		}
		if len(cur) == 0 {
			cur = LineString{ca}
		} else if !cur[len(cur)-1].Equal(ca) {
			flush()
			cur = LineString{ca}
		}
		cur = append(cur, cc)
		if !cc.Equal(c) {
			flush()
		}
	}
	flush()
	return out
}

// clipSegmentToBox is Liang–Barsky segment clipping.
func clipSegmentToBox(a, b Point, box Box) (Point, Point, bool) {
	t0, t1 := 0.0, 1.0
	dx := b.X - a.X
	dy := b.Y - a.Y
	clip := func(p, q float64) bool {
		if p == 0 {
			return q >= 0
		}
		r := q / p
		if p < 0 {
			if r > t1 {
				return false
			}
			if r > t0 {
				t0 = r
			}
		} else {
			if r < t0 {
				return false
			}
			if r < t1 {
				t1 = r
			}
		}
		return true
	}
	if !clip(-dx, a.X-box.MinX) || !clip(dx, box.MaxX-a.X) ||
		!clip(-dy, a.Y-box.MinY) || !clip(dy, box.MaxY-a.Y) {
		return Point{}, Point{}, false
	}
	p0 := Point{a.X + t0*dx, a.Y + t0*dy}
	p1 := Point{a.X + t1*dx, a.Y + t1*dy}
	return p0, p1, true
}
