// Package geom is the geometry kernel underlying AT-GIS.
//
// It provides the object model of the OGC Simple Feature Access
// specification as used by the paper (points, linestrings, polygons,
// multipolygons and collections), bounding boxes, and the planar and
// spherical algorithms the queries run: point-in-polygon and segment
// intersection tests behind ST_Intersects, ST_Within, ST_Contains and
// ST_Disjoint, the convex hull of a point set (the hull aggregate), the
// union of two polygons (the join's union area), perimeter (spherical
// projection, Haversine and Andoyer's formula) and spherical area.
//
// Coordinates are stored as (X, Y) = (longitude, latitude) in degrees,
// matching GeoJSON. Planar algorithms treat them as Cartesian; spherical
// algorithms interpret them on the WGS84 mean sphere.
package geom

import (
	"fmt"
	"math"
)

// EarthRadiusMeters is the mean radius of the WGS84 sphere used for
// spherical distance and area computations.
const EarthRadiusMeters = 6371008.8

// Point is a position in degrees: X is longitude, Y is latitude.
type Point struct {
	X, Y float64
}

// Sub returns the vector p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Cross returns the 2D cross product (p × q).
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Equal reports whether p and q are exactly equal.
func (p Point) Equal(q Point) bool { return p.X == q.X && p.Y == q.Y }

func (p Point) String() string { return fmt.Sprintf("(%g %g)", p.X, p.Y) }

// Box is an axis-aligned bounding rectangle (the paper's MBR).
// An empty Box has Min > Max; EmptyBox returns the canonical empty value.
type Box struct {
	MinX, MinY, MaxX, MaxY float64
}

// EmptyBox returns a Box that contains nothing and acts as the identity
// for Extend and Union.
func EmptyBox() Box {
	return Box{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
}

// BoxOf returns the tightest Box containing all pts. With no points it
// returns EmptyBox.
func BoxOf(pts ...Point) Box {
	b := EmptyBox()
	for _, p := range pts {
		b = b.ExtendPoint(p)
	}
	return b
}

// IsEmpty reports whether the box contains no points.
func (b Box) IsEmpty() bool { return b.MinX > b.MaxX || b.MinY > b.MaxY }

// ExtendPoint returns the smallest box containing b and p.
func (b Box) ExtendPoint(p Point) Box {
	if p.X < b.MinX {
		b.MinX = p.X
	}
	if p.X > b.MaxX {
		b.MaxX = p.X
	}
	if p.Y < b.MinY {
		b.MinY = p.Y
	}
	if p.Y > b.MaxY {
		b.MaxY = p.Y
	}
	return b
}

// Union returns the smallest box containing both b and o. Union is
// associative and commutative with EmptyBox as identity, which is what
// lets MBR computation run as a periodically flushing transducer.
func (b Box) Union(o Box) Box {
	if o.IsEmpty() {
		return b
	}
	if b.IsEmpty() {
		return o
	}
	return Box{
		MinX: math.Min(b.MinX, o.MinX),
		MinY: math.Min(b.MinY, o.MinY),
		MaxX: math.Max(b.MaxX, o.MaxX),
		MaxY: math.Max(b.MaxY, o.MaxY),
	}
}

// Intersects reports whether the two boxes share any point.
func (b Box) Intersects(o Box) bool {
	if b.IsEmpty() || o.IsEmpty() {
		return false
	}
	return b.MinX <= o.MaxX && o.MinX <= b.MaxX &&
		b.MinY <= o.MaxY && o.MinY <= b.MaxY
}

// ContainsBox reports whether o lies entirely within b.
func (b Box) ContainsBox(o Box) bool {
	if b.IsEmpty() || o.IsEmpty() {
		return false
	}
	return o.MinX >= b.MinX && o.MaxX <= b.MaxX &&
		o.MinY >= b.MinY && o.MaxY <= b.MaxY
}

// Center returns the box midpoint. It must not be called on an empty box.
func (b Box) Center() Point { return Point{(b.MinX + b.MaxX) / 2, (b.MinY + b.MaxY) / 2} }

// AsRing returns the box outline as a closed counter-clockwise ring.
func (b Box) AsRing() Ring {
	return Ring{
		{b.MinX, b.MinY}, {b.MaxX, b.MinY},
		{b.MaxX, b.MaxY}, {b.MinX, b.MaxY},
		{b.MinX, b.MinY},
	}
}

// AsPolygon returns the box as a single-ring polygon.
func (b Box) AsPolygon() Polygon { return Polygon{b.AsRing()} }

// GeomType enumerates the geometry kinds supported by AT-GIS, mirroring
// the subset of OGC simple features used in the paper (§2.1).
type GeomType uint8

// Geometry kinds.
const (
	TypePoint GeomType = iota
	TypeLineString
	TypePolygon
	TypeMultiPolygon
	TypeCollection
)

func (t GeomType) String() string {
	switch t {
	case TypePoint:
		return "Point"
	case TypeLineString:
		return "LineString"
	case TypePolygon:
		return "Polygon"
	case TypeMultiPolygon:
		return "MultiPolygon"
	case TypeCollection:
		return "GeometryCollection"
	default:
		return fmt.Sprintf("GeomType(%d)", uint8(t))
	}
}

// Geometry is the interface implemented by every shape kind.
type Geometry interface {
	// Type identifies the concrete kind.
	Type() GeomType
	// Bound returns the minimum bounding rectangle.
	Bound() Box
	// NumPoints returns the total number of vertices.
	NumPoints() int
	// EachEdge calls f for every directed edge; rings contribute their
	// closing edge. Returning false from f stops iteration early.
	EachEdge(f func(a, b Point) bool)
	// EachPoint calls f for every vertex in storage order. Returning
	// false stops iteration early.
	EachPoint(f func(Point) bool)
}

// Ring is a closed sequence of points. The first and last point should be
// equal; Canonical fixes rings that omit the closing vertex.
type Ring []Point

// Canonical returns r with an explicit closing point appended if missing.
func (r Ring) Canonical() Ring {
	if len(r) >= 2 && !r[0].Equal(r[len(r)-1]) {
		return append(append(Ring(nil), r...), r[0])
	}
	return r
}

// SignedArea returns the planar signed area of the ring: positive for
// counter-clockwise orientation.
func (r Ring) SignedArea() float64 {
	n := len(r)
	if n < 3 {
		return 0
	}
	// Shoelace formula; tolerate both open and closed representations.
	var sum float64
	for i := 0; i < n-1; i++ {
		sum += r[i].Cross(r[i+1])
	}
	if !r[0].Equal(r[n-1]) {
		sum += r[n-1].Cross(r[0])
	}
	return sum / 2
}

// Reverse returns a copy of the ring with opposite winding.
func (r Ring) Reverse() Ring {
	out := make(Ring, len(r))
	for i, p := range r {
		out[len(r)-1-i] = p
	}
	return out
}

// Bound returns the MBR of the ring.
func (r Ring) Bound() Box { return BoxOf(r...) }

// PointGeom is a single position as a Geometry.
type PointGeom struct{ P Point }

// Type implements Geometry.
func (g PointGeom) Type() GeomType { return TypePoint }

// Bound implements Geometry.
func (g PointGeom) Bound() Box { return BoxOf(g.P) }

// NumPoints implements Geometry.
func (g PointGeom) NumPoints() int { return 1 }

// EachEdge implements Geometry; a point has no edges.
func (g PointGeom) EachEdge(func(a, b Point) bool) {}

// EachPoint implements Geometry.
func (g PointGeom) EachPoint(f func(Point) bool) { f(g.P) }

// LineString is an open polyline.
type LineString []Point

// Type implements Geometry.
func (g LineString) Type() GeomType { return TypeLineString }

// Bound implements Geometry.
func (g LineString) Bound() Box { return BoxOf(g...) }

// NumPoints implements Geometry.
func (g LineString) NumPoints() int { return len(g) }

// EachEdge implements Geometry.
func (g LineString) EachEdge(f func(a, b Point) bool) {
	for i := 0; i+1 < len(g); i++ {
		if !f(g[i], g[i+1]) {
			return
		}
	}
}

// EachPoint implements Geometry.
func (g LineString) EachPoint(f func(Point) bool) {
	for _, p := range g {
		if !f(p) {
			return
		}
	}
}

// Polygon is an outer ring followed by zero or more holes.
type Polygon []Ring

// Type implements Geometry.
func (g Polygon) Type() GeomType { return TypePolygon }

// Bound implements Geometry. Only the outer ring matters.
func (g Polygon) Bound() Box {
	if len(g) == 0 {
		return EmptyBox()
	}
	return g[0].Bound()
}

// NumPoints implements Geometry.
func (g Polygon) NumPoints() int {
	n := 0
	for _, r := range g {
		n += len(r)
	}
	return n
}

// EachEdge implements Geometry; every ring contributes its closing edge.
func (g Polygon) EachEdge(f func(a, b Point) bool) {
	for _, r := range g {
		if !eachRingEdge(r, f) {
			return
		}
	}
}

// EachPoint implements Geometry.
func (g Polygon) EachPoint(f func(Point) bool) {
	for _, r := range g {
		for _, p := range r {
			if !f(p) {
				return
			}
		}
	}
}

func eachRingEdge(r Ring, f func(a, b Point) bool) bool {
	n := len(r)
	if n < 2 {
		return true
	}
	for i := 0; i+1 < n; i++ {
		if !f(r[i], r[i+1]) {
			return false
		}
	}
	if !r[0].Equal(r[n-1]) {
		if !f(r[n-1], r[0]) {
			return false
		}
	}
	return true
}

// MultiPolygon is a set of polygons.
type MultiPolygon []Polygon

// Type implements Geometry.
func (g MultiPolygon) Type() GeomType { return TypeMultiPolygon }

// Bound implements Geometry.
func (g MultiPolygon) Bound() Box {
	b := EmptyBox()
	for _, p := range g {
		b = b.Union(p.Bound())
	}
	return b
}

// NumPoints implements Geometry.
func (g MultiPolygon) NumPoints() int {
	n := 0
	for _, p := range g {
		n += p.NumPoints()
	}
	return n
}

// EachEdge implements Geometry.
func (g MultiPolygon) EachEdge(f func(a, b Point) bool) {
	for _, p := range g {
		stopped := false
		p.EachEdge(func(a, b Point) bool {
			if !f(a, b) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
	}
}

// EachPoint implements Geometry.
func (g MultiPolygon) EachPoint(f func(Point) bool) {
	for _, p := range g {
		stopped := false
		p.EachPoint(func(q Point) bool {
			if !f(q) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
	}
}

// Collection is a heterogeneous set of geometries; GeoJSON allows these to
// nest recursively (Listing 1 in the paper), which is exactly what defeats
// naive block splitting.
type Collection []Geometry

// Type implements Geometry.
func (g Collection) Type() GeomType { return TypeCollection }

// Bound implements Geometry.
func (g Collection) Bound() Box {
	b := EmptyBox()
	for _, m := range g {
		b = b.Union(m.Bound())
	}
	return b
}

// NumPoints implements Geometry.
func (g Collection) NumPoints() int {
	n := 0
	for _, m := range g {
		n += m.NumPoints()
	}
	return n
}

// EachEdge implements Geometry.
func (g Collection) EachEdge(f func(a, b Point) bool) {
	for _, m := range g {
		stopped := false
		m.EachEdge(func(a, b Point) bool {
			if !f(a, b) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
	}
}

// EachPoint implements Geometry.
func (g Collection) EachPoint(f func(Point) bool) {
	for _, m := range g {
		stopped := false
		m.EachPoint(func(q Point) bool {
			if !f(q) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
	}
}

// Feature is a geometry plus the metadata AT-GIS extracts alongside it:
// a numeric identifier, free-form properties, and the byte offset of the
// object in the raw input (used for identification and join re-parsing,
// paper §4.2).
type Feature struct {
	ID         int64
	Geom       Geometry
	Properties map[string]string
	Offset     int64
}

// Bound returns the MBR of the feature's geometry (empty if none).
func (f *Feature) Bound() Box {
	if f.Geom == nil {
		return EmptyBox()
	}
	return f.Geom.Bound()
}
