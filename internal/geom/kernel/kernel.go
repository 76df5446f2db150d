// Package kernel implements batched, branch-minimized refinement
// kernels over struct-of-arrays coordinate slabs. The scalar predicates
// in internal/geom process one geometry at a time through interface
// dispatch (EachEdge closures) and branch-heavy per-edge loops; after
// the transducer/partition layers prune, that refinement dominates
// selective containment passes and the join's per-cell REFINE stage.
// The kernels here restructure the same arithmetic over contiguous
// float64 X/Y arrays (a ring-offset CSR for polygons, flat A/B arrays
// for edge lists), with per-edge constants hoisted, bounds checks
// eliminated by slice shaping, and data-dependent branches reduced to
// compare-into-byte masks, emitting results as packed bitsets — the
// data-parallel recasting of the predicates that the GPU-oriented
// refinement literature applies (PAPERS.md: arXiv:2004.03630,
// arXiv:2203.14362), on CPU.
//
// Contract: every kernel is bit-identical to its scalar counterpart in
// internal/geom — same IEEE expressions, same comparison rules — so
// kernels may replace scalar refinement anywhere without changing any
// result byte. The scalar forms remain the oracle: the differential
// tests and FuzzKernelVsScalar in this package prove agreement,
// including on degenerate inputs (collinear touches, duplicate closing
// vertices, horizontal edges at the ray height). Two deliberate
// structured exceptions keep that guarantee cheap:
//
//   - LocateBatch accumulates crossing parity for all points over all
//     edges without the scalar's early boundary return; a branch-free
//     edge-bbox byte mask (a superset of the scalar's boundary test)
//     marks "suspect" points, and only those run the exact scalar
//     boundary check in a rare second pass. A boundary verdict
//     overrides parity exactly as the scalar's early return does.
//   - The segment kernels fast-accept on the pure sign test (the first
//     condition of geom.SegmentsIntersect, zeros included); only pairs
//     with a zero orientation — collinear/touching, rare — re-test
//     through the scalar predicate.
//
// The parity loop is additionally y-banded: points are bucketed by y
// once per batch (two O(n) counting-sort passes), and each edge visits
// only the buckets overlapping its own y span — an edge cannot affect a
// point outside it. The band is a conservative filter (an exact in-loop
// gate still decides every visited pair), so it changes which pairs are
// *touched*, never any result bit. The data-dependent branches that
// remain — the gate and the straddle test guarding the crossing
// division — fire only on the thin in-band sliver, where they are
// cheap.
package kernel

import (
	"math"
	"math/bits"

	"atgis/internal/geom"
)

// Bitset is a packed result vector: bit i reports the outcome for input
// item i. The word layout is exported so hot consumers can iterate set
// bits with TrailingZeros instead of per-index calls.
type Bitset []uint64

// Reset sizes the bitset for n items and clears every bit.
func (b *Bitset) Reset(n int) {
	words := (n + 63) >> 6
	if cap(*b) < words {
		*b = make(Bitset, words)
		return
	}
	*b = (*b)[:words]
	for i := range *b {
		(*b)[i] = 0
	}
}

// Set sets bit i.
func (b Bitset) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Get reports bit i.
func (b Bitset) Get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// PolySlab is one polygon laid out struct-of-arrays: all ring vertices
// concatenated into contiguous X/Y arrays with a CSR-style ring offset
// table (ring r spans [RingOff[r], RingOff[r+1]); ring 0 is the outer
// ring). Rings are stored as their EffectiveRing span, so the slab's
// edge cycles are exactly the ones the scalar locate walks.
type PolySlab struct {
	X, Y    []float64
	RingOff []int32
}

// Reset empties the slab, keeping capacity.
func (s *PolySlab) Reset() {
	s.X = s.X[:0]
	s.Y = s.Y[:0]
	s.RingOff = s.RingOff[:0]
}

// SetPolygon fills the slab from p. It returns false when p has no
// usable outer ring (fewer than 3 effective vertices) — the scalar
// locate classifies every point Outside in that case, so callers fall
// back to the oracle. Degenerate holes are skipped for the same reason:
// the scalar hole test can never fire on them.
func (s *PolySlab) SetPolygon(p geom.Polygon) bool {
	s.Reset()
	if len(p) == 0 {
		return false
	}
	outer, ok := geom.EffectiveRing(p[0])
	if !ok {
		return false
	}
	s.RingOff = append(s.RingOff, 0)
	s.appendRing(outer)
	for _, hole := range p[1:] {
		if eff, ok := geom.EffectiveRing(hole); ok {
			s.appendRing(eff)
		}
	}
	return true
}

func (s *PolySlab) appendRing(r geom.Ring) {
	for _, p := range r {
		s.X = append(s.X, p.X)
		s.Y = append(s.Y, p.Y)
	}
	s.RingOff = append(s.RingOff, int32(len(s.X)))
}

// NumRings returns the number of stored rings.
func (s *PolySlab) NumRings() int {
	if len(s.RingOff) < 2 {
		return 0
	}
	return len(s.RingOff) - 1
}

// Per-point fold states of the polygon locate: the hole fold finalises
// a point the moment a ring is decisive, mirroring the scalar's
// first-decisive-hole early return.
const (
	stOutside  = 0 // final
	stBoundary = 1 // final
	stInside   = 2 // tentative until every hole has been folded
)

// LocateOut holds LocateBatch's classification bitsets plus the
// internal per-point scratch vectors (retained across batches).
type LocateOut struct {
	// Inside / Boundary are the classification bitsets; a point with
	// neither bit set is Outside.
	Inside, Boundary Bitset

	parity  []byte
	suspect []byte
	state   []byte
	bands   yIndex
}

// yBuckets is the band count of the per-batch y index. 256 keeps the
// counting sort two cheap O(n) passes while making a typical edge's
// band visit a few buckets.
const yBuckets = 256

// yIndex buckets a batch's points by y so each edge's inner loop visits
// only the buckets overlapping its y span, instead of every point. The
// index is a conservative filter — bucket granularity admits a sliver of
// out-of-band points on each side, and every visited pair still runs the
// exact in-loop gate — so it cannot change any bit of the result, only
// how many no-contribution pairs are touched.
type yIndex struct {
	order []int32 // point indices, bucket-major, index-ascending within
	start []int32 // CSR bucket offsets into order (len yBuckets+1)
	pos   []int32 // counting-sort scratch
	miny  float64
	scale float64
}

// bucket maps y to its band. Monotone non-decreasing in y over the reals
// with NaN and -Inf pinned to band 0 and +Inf to the last — so a point
// in [loy, hiy] always lies in [bucket(loy), bucket(hiy)].
func (ix *yIndex) bucket(y float64) int {
	if !(y > ix.miny) {
		return 0 // y <= miny, -Inf, or NaN
	}
	d := (y - ix.miny) * ix.scale
	if d >= yBuckets {
		return yBuckets - 1 // +Inf and top-of-range land here
	}
	return int(d)
}

func (ix *yIndex) build(py []float64) {
	n := len(py)
	ix.order = growInt32(ix.order, n)
	ix.start = growInt32(ix.start, yBuckets+1)
	ix.pos = growInt32(ix.pos, yBuckets)
	// Finite y range of the batch; infinities clamp to the end buckets
	// and NaN to band 0, all harmless (their pairs decide to no-op in
	// the exact gate anyway).
	miny, maxy := math.Inf(1), math.Inf(-1)
	for _, y := range py {
		if y >= -math.MaxFloat64 && y < miny {
			miny = y
		}
		if y <= math.MaxFloat64 && y > maxy {
			maxy = y
		}
	}
	ix.miny, ix.scale = miny, 0
	if maxy > miny {
		ix.scale = yBuckets / (maxy - miny)
	}
	for b := range ix.pos {
		ix.pos[b] = 0
	}
	for _, y := range py {
		ix.pos[ix.bucket(y)]++
	}
	off := int32(0)
	for b := 0; b < yBuckets; b++ {
		ix.start[b] = off
		off += ix.pos[b]
		ix.pos[b] = ix.start[b]
	}
	ix.start[yBuckets] = off
	for i, y := range py {
		b := ix.bucket(y)
		ix.order[ix.pos[b]] = int32(i)
		ix.pos[b]++
	}
}

// Location converts point i's bits back to the scalar classification.
func (o *LocateOut) Location(i int) geom.PointLocation {
	if o.Boundary.Get(i) {
		return geom.OnBoundary
	}
	if o.Inside.Get(i) {
		return geom.Inside
	}
	return geom.Outside
}

func (o *LocateOut) prepare(n int) {
	o.parity = growBytes(o.parity, n)
	o.suspect = growBytes(o.suspect, n)
	o.state = growBytes(o.state, n)
	o.Inside.Reset(n)
	o.Boundary.Reset(n)
}

func growBytes(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

func growInt32(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}

// LocateBatch classifies every point (px[i], py[i]) against the slab's
// polygon, bit-identically to geom.LocatePointInPolygon. The outer ring
// and each hole run the branch-minimized parity/suspect kernel
// (locateRing); suspect points run the exact scalar boundary test in
// the rare second pass; holes fold per point in ring order with the
// scalar's first-decisive-hole semantics.
func LocateBatch(poly *PolySlab, px, py []float64, out *LocateOut) {
	n := len(px)
	if len(py) < n {
		n = len(py)
	}
	px, py = px[:n], py[:n]
	out.prepare(n)
	if poly.NumRings() == 0 {
		return // no usable outer ring: everything Outside
	}
	parity, suspect, state := out.parity, out.suspect, out.state
	out.bands.build(py)
	locateRing(poly.X, poly.Y, int(poly.RingOff[0]), int(poly.RingOff[1]), px, py, &out.bands, parity, suspect)
	for i := 0; i < n; i++ {
		st := byte(stOutside)
		if parity[i] != 0 {
			st = stInside
		}
		// Boundary dominates parity, exactly like the scalar early
		// return: the point's edge walk would have stopped there.
		if suspect[i] != 0 && onRingBoundary(poly, 0, px[i], py[i]) {
			st = stBoundary
		}
		state[i] = st
	}
	for r := 1; r < poly.NumRings(); r++ {
		if !anyTentative(state) {
			break
		}
		locateRing(poly.X, poly.Y, int(poly.RingOff[r]), int(poly.RingOff[r+1]), px, py, &out.bands, parity, suspect)
		for i := 0; i < n; i++ {
			if state[i] != stInside {
				continue // already decided by an earlier ring
			}
			if suspect[i] != 0 && onRingBoundary(poly, r, px[i], py[i]) {
				state[i] = stBoundary
				continue
			}
			if parity[i] != 0 {
				state[i] = stOutside // strictly inside a hole
			}
		}
	}
	for i, st := range state {
		switch st {
		case stInside:
			out.Inside.Set(i)
		case stBoundary:
			out.Boundary.Set(i)
		}
	}
}

func anyTentative(state []byte) bool {
	for _, st := range state {
		if st == stInside {
			return true
		}
	}
	return false
}

// locateRing accumulates crossing parity and the boundary-suspect mask
// for every point against one ring's edge cycle. An edge can only
// affect points inside its y span — the straddle test (ay > y) !=
// (by > y) holds exactly for loy <= y < hiy, and the suspect bbox needs
// loy <= y <= hiy — so each edge walks just the y-index buckets
// overlapping [loy, hiy] instead of the whole batch, and the in-loop
// gate discards the bucket-granularity sliver. The crossing expression
// is the scalar's, verbatim, for bit-identical parity.
//
//atgis:hotpath
func locateRing(xs, ys []float64, lo, hi int, px, py []float64, ix *yIndex, parity, suspect []byte) {
	n := len(px)
	if len(py) < n || len(parity) < n || len(suspect) < n || len(ix.order) < n {
		return // callers size these together; shaped for bounds-check elimination
	}
	py = py[:n]
	parity = parity[:n]
	suspect = suspect[:n]
	for i := range parity {
		parity[i] = 0
		suspect[i] = 0
	}
	if lo < 0 || hi > len(xs) || hi > len(ys) || lo >= hi {
		return
	}
	j := hi - 1
	for i := lo; i < hi; i++ {
		ax, ay := xs[j], ys[j]
		bx, by := xs[i], ys[i]
		j = i
		// Hoisted per-edge bbox: the suspect mask is the superset of the
		// scalar's collinear+onSegment boundary test, and the y band
		// selects the buckets below.
		lox, hix := ax, bx
		if bx < ax {
			lox, hix = bx, ax
		}
		loy, hiy := ay, by
		if by < ay {
			loy, hiy = by, ay
		}
		b0, b1 := ix.bucket(loy), ix.bucket(hiy)
		if b1 < b0 {
			b1 = b0 // NaN bounds both pin to band 0; nothing to find anyway
		}
		for _, ki := range ix.order[ix.start[b0]:ix.start[b1+1]] {
			k := int(ki)
			y := py[k]
			// Exact gate: bucket granularity admits a sliver outside the
			// band; nothing outside [loy, hiy] can contribute. (A NaN y
			// fails both comparisons and falls through to two no-op
			// tests.)
			if y < loy || y > hiy {
				continue
			}
			x := px[k]
			if x >= lox && x <= hix {
				suspect[k] = 1
			}
			if (ay > y) != (by > y) {
				// Identical arithmetic to LocatePointInRing's crossing.
				cx := ax + (y-ay)*(bx-ax)/(by-ay)
				var c byte
				if cx > x {
					c = 1
				}
				parity[k] ^= c
			}
		}
	}
}

// onRingBoundary is the rare-path exact boundary test for one suspect
// point: the scalar per-edge check (geom.PointOnSegment) over ring r's
// edge cycle.
func onRingBoundary(poly *PolySlab, r int, x, y float64) bool {
	lo, hi := int(poly.RingOff[r]), int(poly.RingOff[r+1])
	p := geom.Point{X: x, Y: y}
	j := hi - 1
	for i := lo; i < hi; i++ {
		a := geom.Point{X: poly.X[j], Y: poly.Y[j]}
		b := geom.Point{X: poly.X[i], Y: poly.Y[i]}
		if geom.PointOnSegment(a, b, p) {
			return true
		}
		j = i
	}
	return false
}

// EdgeSlab is a directed edge list laid out struct-of-arrays: edge k is
// (AX[k],AY[k]) → (BX[k],BY[k]). Filled through EachEdge, so its edge
// set is exactly the scalar predicates'.
type EdgeSlab struct {
	AX, AY, BX, BY []float64
}

// Reset empties the slab, keeping capacity.
func (s *EdgeSlab) Reset() {
	s.AX = s.AX[:0]
	s.AY = s.AY[:0]
	s.BX = s.BX[:0]
	s.BY = s.BY[:0]
}

// Len returns the number of edges.
func (s *EdgeSlab) Len() int { return len(s.AX) }

// Append adds one directed edge.
func (s *EdgeSlab) Append(a, b geom.Point) {
	s.AX = append(s.AX, a.X)
	s.AY = append(s.AY, a.Y)
	s.BX = append(s.BX, b.X)
	s.BY = append(s.BY, b.Y)
}

// AppendGeometry appends g's full edge stream (nil appends nothing).
func (s *EdgeSlab) AppendGeometry(g geom.Geometry) {
	if g == nil {
		return
	}
	g.EachEdge(func(a, b geom.Point) bool {
		s.Append(a, b)
		return true
	})
}

// signsDiffer reports sign(u) != sign(v) over {-1, 0, +1} — the exact
// comparison geom.SegmentsIntersect's o1 != o2 performs, zeros
// included, computed without materialising the signs.
func signsDiffer(u, v float64) bool {
	return (u > 0) != (v > 0) || (u < 0) != (v < 0)
}

// oppositeSigns reports that u and v are both nonzero with opposite
// signs — SegmentsCross's o1 != 0 && o2 != 0 && o1 != o2.
func oppositeSigns(u, v float64) bool {
	return (u > 0 && v < 0) || (u < 0 && v > 0)
}

// AnyIntersectEdge reports whether segment ab intersects any edge of
// the slab, bit-identically to geom.SegmentsIntersect against each.
// The hot loop evaluates the four orientation cross products with the
// scalar's exact expressions and fast-accepts on the pure sign test;
// pairs with a zero orientation (collinear or touching — rare) re-test
// through the scalar predicate.
//
//atgis:hotpath
func (s *EdgeSlab) AnyIntersectEdge(a, b geom.Point) bool {
	n := len(s.AX)
	if len(s.AY) < n || len(s.BX) < n || len(s.BY) < n {
		return false // Append keeps the arrays in lockstep
	}
	cax, cay := s.AX[:n], s.AY[:n]
	cbx, cby := s.BX[:n], s.BY[:n]
	ax, ay := a.X, a.Y
	px, py := b.X, b.Y
	rx, ry := px-ax, py-ay
	for k := 0; k < n; k++ {
		cx1, cy1 := cax[k], cay[k]
		cx2, cy2 := cbx[k], cby[k]
		// Orientation(a, b, c) = (b-a) × (c-a); same expression, same
		// floats, same signs as the scalar, each product rounded on its
		// own as Point.Cross rounds it.
		v1 := float64(rx*(cy1-ay)) - float64(ry*(cx1-ax))
		v2 := float64(rx*(cy2-ay)) - float64(ry*(cx2-ax))
		sx, sy := cx2-cx1, cy2-cy1
		v3 := float64(sx*(ay-cy1)) - float64(sy*(ax-cx1))
		v4 := float64(sx*(py-cy1)) - float64(sy*(px-cx1))
		if signsDiffer(v1, v2) && signsDiffer(v3, v4) {
			return true
		}
		if v1 == 0 || v2 == 0 || v3 == 0 || v4 == 0 {
			if geom.SegmentsIntersect(a, b, geom.Point{X: cx1, Y: cy1}, geom.Point{X: cx2, Y: cy2}) {
				return true
			}
		}
	}
	return false
}

// AnyCrossEdge reports whether segment ab properly crosses any edge of
// the slab, bit-identically to geom.SegmentsCross against each. Proper
// crossing needs all four orientations nonzero, so the sign test is
// exact and no rare path exists.
//
//atgis:hotpath
func (s *EdgeSlab) AnyCrossEdge(a, b geom.Point) bool {
	n := len(s.AX)
	if len(s.AY) < n || len(s.BX) < n || len(s.BY) < n {
		return false
	}
	cax, cay := s.AX[:n], s.AY[:n]
	cbx, cby := s.BX[:n], s.BY[:n]
	ax, ay := a.X, a.Y
	px, py := b.X, b.Y
	rx, ry := px-ax, py-ay
	for k := 0; k < n; k++ {
		cx1, cy1 := cax[k], cay[k]
		cx2, cy2 := cbx[k], cby[k]
		v1 := float64(rx*(cy1-ay)) - float64(ry*(cx1-ax))
		v2 := float64(rx*(cy2-ay)) - float64(ry*(cx2-ax))
		sx, sy := cx2-cx1, cy2-cy1
		v3 := float64(sx*(ay-cy1)) - float64(sy*(ax-cx1))
		v4 := float64(sx*(py-cy1)) - float64(sy*(px-cx1))
		if oppositeSigns(v1, v2) && oppositeSigns(v3, v4) {
			return true
		}
	}
	return false
}

// BoxSlab is an MBR list laid out struct-of-arrays.
type BoxSlab struct {
	MinX, MinY, MaxX, MaxY []float64
}

// Reset empties the slab, keeping capacity.
func (s *BoxSlab) Reset() {
	s.MinX = s.MinX[:0]
	s.MinY = s.MinY[:0]
	s.MaxX = s.MaxX[:0]
	s.MaxY = s.MaxY[:0]
}

// Len returns the number of boxes.
func (s *BoxSlab) Len() int { return len(s.MinX) }

// Append adds one box.
func (s *BoxSlab) Append(b geom.Box) {
	s.MinX = append(s.MinX, b.MinX)
	s.MinY = append(s.MinY, b.MinY)
	s.MaxX = append(s.MaxX, b.MaxX)
	s.MaxY = append(s.MaxY, b.MaxY)
}

// BoxFilterBatch sets bit i exactly when q intersects box i, fused
// ahead of the exact kernels — bit-identical to geom.Box.Intersects
// (empty boxes on either side never intersect).
//
//atgis:hotpath
func BoxFilterBatch(q geom.Box, s *BoxSlab, out *Bitset) {
	n := len(s.MinX)
	out.Reset(n)
	if len(s.MinY) < n || len(s.MaxX) < n || len(s.MaxY) < n {
		return
	}
	if q.MinX > q.MaxX || q.MinY > q.MaxY {
		return // empty query box intersects nothing
	}
	minx, miny := s.MinX[:n], s.MinY[:n]
	maxx, maxy := s.MaxX[:n], s.MaxY[:n]
	o := *out
	for i := 0; i < n; i++ {
		var hit uint64
		if minx[i] <= maxx[i] && miny[i] <= maxy[i] &&
			q.MinX <= maxx[i] && minx[i] <= q.MaxX &&
			q.MinY <= maxy[i] && miny[i] <= q.MaxY {
			hit = 1
		}
		o[i>>6] |= hit << (uint(i) & 63)
	}
}

// EachSet calls f for every set bit, using word-level TrailingZeros
// iteration.
func (b Bitset) EachSet(f func(i int)) {
	for w, word := range b {
		base := w << 6
		for word != 0 {
			f(base + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}
