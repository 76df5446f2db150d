package geom

import "sort"

// HullOfPoints computes the convex hull ring of a point set.
func HullOfPoints(pts []Point) Polygon {
	if len(pts) == 0 {
		return Polygon{}
	}
	ps := make([]Point, len(pts))
	copy(ps, pts)
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].X != ps[j].X {
			return ps[i].X < ps[j].X
		}
		return ps[i].Y < ps[j].Y
	})
	// Dedupe.
	uniq := ps[:1]
	for _, p := range ps[1:] {
		if !p.Equal(uniq[len(uniq)-1]) {
			uniq = append(uniq, p)
		}
	}
	ps = uniq
	if len(ps) == 1 {
		return Polygon{Ring{ps[0], ps[0]}}
	}
	if len(ps) == 2 {
		return Polygon{Ring{ps[0], ps[1], ps[0]}}
	}
	var lower, upper []Point
	for _, p := range ps {
		for len(lower) >= 2 && Orientation(lower[len(lower)-2], lower[len(lower)-1], p) <= 0 {
			lower = lower[:len(lower)-1]
		}
		lower = append(lower, p)
	}
	for i := len(ps) - 1; i >= 0; i-- {
		p := ps[i]
		for len(upper) >= 2 && Orientation(upper[len(upper)-2], upper[len(upper)-1], p) <= 0 {
			upper = upper[:len(upper)-1]
		}
		upper = append(upper, p)
	}
	ring := make(Ring, 0, len(lower)+len(upper)-1)
	ring = append(ring, lower[:len(lower)-1]...)
	ring = append(ring, upper[:len(upper)-1]...)
	ring = append(ring, ring[0])
	return Polygon{ring}
}
