package geom

import "math"

// DistanceMethod selects how linear distance between two lon/lat points
// is computed. The paper's evaluation (§5.4, Fig. 13) contrasts a cheap
// spherical projection with the more accurate, FP-heavier Andoyer
// formula.
type DistanceMethod uint8

// Distance methods.
const (
	// SphericalProjection approximates distance with an equirectangular
	// projection around the segment's mean latitude. Cheap: one cosine.
	SphericalProjection DistanceMethod = iota
	// Andoyer uses Andoyer's first-order flattening correction over the
	// haversine great-circle distance. Accurate at high latitudes,
	// roughly 3-4x the floating-point work.
	Andoyer
	// Haversine is the plain great-circle distance on the mean sphere.
	Haversine
)

func (m DistanceMethod) String() string {
	switch m {
	case SphericalProjection:
		return "spherical"
	case Andoyer:
		return "andoyer"
	case Haversine:
		return "haversine"
	default:
		return "unknown"
	}
}

const (
	degToRad = math.Pi / 180
	// WGS84 flattening, used by Andoyer's correction.
	flattening = 1 / 298.257223563
	// WGS84 equatorial radius in meters.
	equatorialRadius = 6378137.0
)

// SphericalDistance returns the approximate distance in meters between
// two lon/lat points using an equirectangular projection.
func SphericalDistance(a, b Point) float64 {
	latMean := (a.Y + b.Y) / 2 * degToRad
	dx := (b.X - a.X) * degToRad * math.Cos(latMean)
	dy := (b.Y - a.Y) * degToRad
	return EarthRadiusMeters * math.Sqrt(float64(dx*dx)+float64(dy*dy))
}

// HaversineDistance returns the great-circle distance in meters between
// two lon/lat points on the mean sphere.
func HaversineDistance(a, b Point) float64 {
	la1 := a.Y * degToRad
	la2 := b.Y * degToRad
	dLat := (b.Y - a.Y) * degToRad
	dLon := (b.X - a.X) * degToRad
	s1 := math.Sin(dLat / 2)
	s2 := math.Sin(dLon / 2)
	h := float64(s1*s1) + float64(math.Cos(la1)*math.Cos(la2)*s2*s2)
	return 2 * EarthRadiusMeters * math.Asin(math.Min(1, math.Sqrt(h)))
}

// AndoyerDistance returns the geodesic distance in meters between two
// lon/lat points using Andoyer's first-order formula on the WGS84
// ellipsoid.
func AndoyerDistance(a, b Point) float64 {
	if a.Equal(b) {
		return 0
	}
	la1, la2 := float64(a.Y*degToRad), float64(b.Y*degToRad)
	dLon := (b.X - a.X) * degToRad

	f := (la1 + la2) / 2 // mean latitude
	g := (la1 - la2) / 2
	l := dLon / 2

	sinG, cosG := math.Sin(g), math.Cos(g)
	sinF, cosF := math.Sin(f), math.Cos(f)
	sinL, cosL := math.Sin(l), math.Cos(l)

	s := float64(sinG*sinG*cosL*cosL) + float64(cosF*cosF*sinL*sinL)
	c := float64(cosG*cosG*cosL*cosL) + float64(sinF*sinF*sinL*sinL)
	if s == 0 || c == 0 {
		// Coincident or antipodal degenerate cases.
		return HaversineDistance(a, b)
	}
	omega := math.Atan(math.Sqrt(s / c))
	r := math.Sqrt(s*c) / omega
	d := 2 * omega * equatorialRadius
	h1 := (float64(3*r) - 1) / (2 * c)
	h2 := (float64(3*r) + 1) / (2 * s)
	return d * (1 + float64(flattening*(float64(h1*sinF*sinF*cosG*cosG)-float64(h2*cosF*cosF*sinG*sinG))))
}

// Distance dispatches on the method.
func Distance(a, b Point, m DistanceMethod) float64 {
	switch m {
	case Andoyer:
		return AndoyerDistance(a, b)
	case Haversine:
		return HaversineDistance(a, b)
	default:
		return SphericalDistance(a, b)
	}
}

// Perimeter returns the total edge length of g in meters using method m.
func Perimeter(g Geometry, m DistanceMethod) float64 {
	var sum float64
	g.EachEdge(func(a, b Point) bool {
		sum += Distance(a, b, m)
		return true
	})
	return sum
}

// RingSphericalArea returns the signed spherical area of the ring in
// square meters, positive for counter-clockwise winding, using the
// spherical excess formula (L'Huilier via the shoelace on the sphere).
func RingSphericalArea(r Ring) float64 {
	rr := r.Canonical()
	if len(rr) < 4 {
		return 0
	}
	var sum float64
	for i := 0; i+1 < len(rr); i++ {
		a, b := rr[i], rr[i+1]
		lon1 := float64(a.X * degToRad)
		lon2 := float64(b.X * degToRad)
		lat1 := a.Y * degToRad
		lat2 := b.Y * degToRad
		sum += float64((lon2 - lon1) * (2 + math.Sin(lat1) + math.Sin(lat2)))
	}
	return sum * EarthRadiusMeters * EarthRadiusMeters / 2
}

// SphericalArea returns the unsigned spherical area of g in square
// meters; holes subtract from their polygon.
func SphericalArea(g Geometry) float64 {
	switch t := g.(type) {
	case Polygon:
		if len(t) == 0 {
			return 0
		}
		area := math.Abs(RingSphericalArea(t[0]))
		for _, hole := range t[1:] {
			area -= math.Abs(RingSphericalArea(hole))
		}
		if area < 0 {
			return 0
		}
		return area
	case MultiPolygon:
		var sum float64
		for _, poly := range t {
			sum += SphericalArea(poly)
		}
		return sum
	case Collection:
		var sum float64
		for _, m := range t {
			sum += SphericalArea(m)
		}
		return sum
	default:
		return 0
	}
}

// PlanarArea returns the unsigned planar (degree²) area of g; holes
// subtract.
func PlanarArea(g Geometry) float64 {
	switch t := g.(type) {
	case Polygon:
		if len(t) == 0 {
			return 0
		}
		area := math.Abs(t[0].SignedArea())
		for _, hole := range t[1:] {
			area -= math.Abs(hole.SignedArea())
		}
		if area < 0 {
			return 0
		}
		return area
	case MultiPolygon:
		var sum float64
		for _, poly := range t {
			sum += PlanarArea(poly)
		}
		return sum
	case Collection:
		var sum float64
		for _, m := range t {
			sum += PlanarArea(m)
		}
		return sum
	default:
		return 0
	}
}
