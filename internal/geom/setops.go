package geom

import "math"

// ST_Union of two polygons (the join's union-area aggregate) on a
// Greiner–Hormann clipper. The clipper operates on simple (hole-free,
// non-self-intersecting) rings; it also traces intersections and
// differences, which only the test-only operators of operators_test.go
// ask of it. Degenerate configurations (shared vertices, collinear
// overlapping edges) are resolved by retrying with a deterministic
// micro-perturbation of the clip operand.

type ghNode struct {
	p          Point
	next, prev *ghNode
	neighbor   *ghNode
	intersect  bool
	entry      bool
	visited    bool
	alpha      float64
}

// buildList creates a circular doubly linked list from an open ring.
func buildList(r Ring) *ghNode {
	open := r.Canonical()
	if len(open) > 1 {
		open = open[:len(open)-1]
	}
	var head, tail *ghNode
	for _, p := range open {
		n := &ghNode{p: p}
		if head == nil {
			head = n
			tail = n
			continue
		}
		if tail.p.Equal(p) {
			continue // drop duplicate consecutive vertices
		}
		tail.next = n
		n.prev = tail
		tail = n
	}
	if head == nil {
		return nil
	}
	tail.next = head
	head.prev = tail
	if head == tail || head.next == tail {
		return nil // fewer than 3 distinct vertices
	}
	return head
}

// insertBetween inserts node n into the list between a and its successor
// chain, ordered by alpha among intersection nodes.
func insertBetween(a *ghNode, n *ghNode) {
	pos := a
	for pos.next.intersect && pos.next.alpha < n.alpha {
		pos = pos.next
	}
	n.next = pos.next
	n.prev = pos
	pos.next.prev = n
	pos.next = n
}

// nextNonIntersect returns the first non-intersection node at or after n.
func nextNonIntersect(n *ghNode) *ghNode {
	for n.intersect {
		n = n.next
	}
	return n
}

// segIntersectAlpha returns the intersection of segments p1p2 and q1q2
// with parametric positions; degenerate (endpoint or collinear) cases
// report ok=false and degenerate=true.
func segIntersectAlpha(p1, p2, q1, q2 Point) (pt Point, tp, tq float64, ok, degenerate bool) {
	r := p2.Sub(p1)
	s := q2.Sub(q1)
	denom := r.Cross(s)
	if denom == 0 {
		// Parallel: degenerate if collinear and overlapping.
		if Orientation(p1, p2, q1) == 0 &&
			(onSegment(p1, p2, q1) || onSegment(p1, p2, q2) || onSegment(q1, q2, p1)) {
			return Point{}, 0, 0, false, true
		}
		return Point{}, 0, 0, false, false
	}
	tp = q1.Sub(p1).Cross(s) / denom
	tq = q1.Sub(p1).Cross(r) / denom
	const eps = 1e-12
	if tp < -eps || tp > 1+eps || tq < -eps || tq > 1+eps {
		return Point{}, 0, 0, false, false
	}
	if tp < eps || tp > 1-eps || tq < eps || tq > 1-eps {
		// Endpoint-grazing intersection: degenerate for Greiner–Hormann.
		return Point{}, 0, 0, false, true
	}
	pt = Point{p1.X + tp*r.X, p1.Y + tp*r.Y}
	return pt, tp, tq, true, false
}

// clipRings runs Greiner–Hormann on two simple rings and returns the
// result rings for the requested operation. degenerate reports that the
// configuration cannot be handled and the caller should perturb and
// retry.
func clipRings(subject, clip Ring, op setOp) (out []Ring, degenerate bool) {
	subj := buildList(normalizeCCW(subject))
	clp := buildList(normalizeCCW(clip))
	if subj == nil || clp == nil {
		return nil, false
	}

	// Phase 1: find and insert intersections.
	found := false
	for a := subj; ; {
		aNext := nextNonIntersect(a.next)
		for b := clp; ; {
			bNext := nextNonIntersect(b.next)
			pt, tp, tq, ok, degen := segIntersectAlpha(a.p, aNext.p, b.p, bNext.p)
			if degen {
				return nil, true
			}
			if ok {
				found = true
				na := &ghNode{p: pt, intersect: true, alpha: tp}
				nb := &ghNode{p: pt, intersect: true, alpha: tq}
				na.neighbor = nb
				nb.neighbor = na
				insertBetween(a, na)
				insertBetween(b, nb)
			}
			b = bNext
			if b == clp {
				break
			}
		}
		a = aNext
		if a == subj {
			break
		}
	}

	if !found {
		return noIntersectionResult(subject, clip, op), false
	}

	// Phase 2: mark entry/exit using midpoint classification, which is
	// robust to the alternation drifting on near-degenerate input.
	subjRing := normalizeCCW(clip) // classify subject nodes against clip
	markEntries(subj, Polygon{subjRing})
	clipAgainst := normalizeCCW(subject)
	markEntries(clp, Polygon{clipAgainst})

	// Operation-specific flag inversion. With midpoint semantics
	// ("entry" = the outgoing span lies inside the other polygon):
	// intersection walks forward where inside; union walks forward where
	// outside on both operands; difference A−B walks A where outside B
	// and B where inside A.
	switch op {
	case opUnion:
		invertEntries(subj)
		invertEntries(clp)
	case opDifference:
		invertEntries(subj)
	}

	// Phase 3: trace result polygons.
	for {
		start := firstUnvisitedIntersection(subj)
		if start == nil {
			break
		}
		ring := Ring{start.p}
		cur := start
		cur.visited = true
		if cur.neighbor != nil {
			cur.neighbor.visited = true
		}
		for i := 0; ; i++ {
			if i > 1<<20 {
				return nil, true // tracing failed to terminate; degenerate
			}
			if cur.entry {
				for {
					cur = cur.next
					ring = append(ring, cur.p)
					if cur.intersect {
						break
					}
				}
			} else {
				for {
					cur = cur.prev
					ring = append(ring, cur.p)
					if cur.intersect {
						break
					}
				}
			}
			cur.visited = true
			if cur.neighbor != nil {
				cur.neighbor.visited = true
			}
			cur = cur.neighbor
			cur.visited = true
			if cur == start || cur.neighbor == start {
				break
			}
		}
		if len(ring) >= 3 {
			out = append(out, ring.Canonical())
		}
	}
	return out, false
}

type setOp uint8

const (
	opIntersection setOp = iota
	opUnion
	opDifference
)

func normalizeCCW(r Ring) Ring {
	if r.SignedArea() < 0 {
		return r.Reverse()
	}
	return r
}

func markEntries(list *ghNode, other Polygon) {
	for n := list; ; {
		if n.intersect {
			// Midpoint of the outgoing span determines whether we are
			// entering the other polygon.
			next := n.next
			mid := Point{(n.p.X + next.p.X) / 2, (n.p.Y + next.p.Y) / 2}
			n.entry = LocatePointInPolygon(mid, other) == Inside
		}
		n = n.next
		if n == list {
			break
		}
	}
}

func invertEntries(list *ghNode) {
	for n := list; ; {
		if n.intersect {
			n.entry = !n.entry
		}
		n = n.next
		if n == list {
			break
		}
	}
}

func firstUnvisitedIntersection(list *ghNode) *ghNode {
	for n := list; ; {
		if n.intersect && !n.visited {
			return n
		}
		n = n.next
		if n == list {
			return nil
		}
	}
}

func noIntersectionResult(subject, clip Ring, op setOp) []Ring {
	subjInClip := LocatePointInRing(subject[0], clip) == Inside ||
		ringInside(subject, clip)
	clipInSubj := LocatePointInRing(clip[0], subject) == Inside ||
		ringInside(clip, subject)
	switch op {
	case opIntersection:
		if subjInClip {
			return []Ring{subject.Canonical()}
		}
		if clipInSubj {
			return []Ring{clip.Canonical()}
		}
		return nil
	case opUnion:
		if subjInClip {
			return []Ring{clip.Canonical()}
		}
		if clipInSubj {
			return []Ring{subject.Canonical()}
		}
		return []Ring{subject.Canonical(), clip.Canonical()}
	case opDifference:
		if subjInClip {
			return nil
		}
		if clipInSubj {
			// Subject with clip as hole; represent as outer+hole.
			return []Ring{subject.Canonical(), normalizeCW(clip).Canonical()}
		}
		return []Ring{subject.Canonical()}
	}
	return nil
}

func normalizeCW(r Ring) Ring {
	if r.SignedArea() > 0 {
		return r.Reverse()
	}
	return r
}

func ringInside(inner, outer Ring) bool {
	for _, p := range inner {
		switch LocatePointInRing(p, outer) {
		case Inside:
			return true
		case Outside:
			return false
		}
	}
	return false
}

// perturb returns the ring translated by a deterministic epsilon used to
// escape degenerate configurations.
func perturb(r Ring, scale float64) Ring {
	out := make(Ring, len(r))
	for i, p := range r {
		out[i] = Point{p.X + scale, p.Y + scale*0.5}
	}
	return out
}

// clipSimple runs the clipper with degeneracy retries.
func clipSimple(subject, clip Ring, op setOp) []Ring {
	eps := 0.0
	span := math.Max(clip.Bound().MaxX-clip.Bound().MinX, 1e-9)
	for attempt := 0; attempt < 4; attempt++ {
		c := clip
		if eps != 0 {
			c = perturb(clip, eps)
		}
		out, degen := clipRings(subject, c, op)
		if !degen {
			return out
		}
		if eps == 0 {
			eps = span * 1e-9
		} else {
			eps *= 13
		}
	}
	return nil
}

// assemblePolygons nests a flat set of traced rings into polygons:
// rings at even containment depth become outer rings (normalised CCW),
// rings at odd depth become holes (normalised CW) of their innermost
// enclosing outer.
func assemblePolygons(rings []Ring) MultiPolygon {
	type info struct {
		ring  Ring
		depth int
		area  float64
	}
	infos := make([]info, 0, len(rings))
	for _, r := range rings {
		a := math.Abs(r.SignedArea())
		if a == 0 {
			continue // zero-area sliver
		}
		infos = append(infos, info{ring: r, area: a})
	}
	for i := range infos {
		for j := range infos {
			if i == j {
				continue
			}
			if ringContainsRing(infos[j].ring, infos[j].area, infos[i].ring, infos[i].area) {
				infos[i].depth++
			}
		}
	}
	var out MultiPolygon
	// Outers first (even depth), largest first so holes find a home.
	type outer struct {
		poly  Polygon
		depth int
	}
	var outers []outer
	for _, in := range infos {
		if in.depth%2 == 0 {
			outers = append(outers, outer{Polygon{normalizeCCW(in.ring)}, in.depth})
		}
	}
	for _, in := range infos {
		if in.depth%2 == 1 {
			// Attach to the outer with depth == in.depth-1 containing it.
			for k := range outers {
				outerRing := outers[k].poly[0]
				if outers[k].depth == in.depth-1 &&
					ringContainsRing(outerRing, math.Abs(outerRing.SignedArea()), in.ring, in.area) {
					outers[k].poly = append(outers[k].poly, normalizeCW(in.ring))
					break
				}
			}
		}
	}
	for _, o := range outers {
		out = append(out, o.poly)
	}
	return out
}

// ringContainsRing reports whether inner lies entirely within outer.
// The rings are assumed not to cross (they come from a clipping trace);
// vertices may coincide with the other ring's boundary, in which case the
// areas break the tie.
func ringContainsRing(outer Ring, outerArea float64, inner Ring, innerArea float64) bool {
	for _, p := range inner {
		switch LocatePointInRing(p, outer) {
		case Inside:
			return true
		case Outside:
			return false
		}
	}
	return outerArea > innerArea
}

// PolyUnion implements ST_Union for two polygons.
func PolyUnion(a, b Polygon) MultiPolygon {
	if len(a) == 0 {
		if len(b) == 0 {
			return nil
		}
		return MultiPolygon{b}
	}
	if len(b) == 0 {
		return MultiPolygon{a}
	}
	if !a.Bound().Intersects(b.Bound()) {
		return MultiPolygon{a, b}
	}
	rings := clipSimple(a[0], b[0], opUnion)
	if rings == nil {
		return MultiPolygon{a, b}
	}
	return assemblePolygons(rings)
}
