// Package synth generates the evaluation datasets of the paper's Table 2
// as deterministic, seeded synthetic equivalents (the substitution for
// the 592 GB OpenStreetMap planet dump is recorded in the paper map of
// docs/ARCHITECTURE.md):
//
//   - OSM-like feature collections: mixed polygons, multipolygons and
//     linestrings with ids and free-form metadata, written as GeoJSON
//     (OSM-G), WKT (OSM-W) or OSM XML (OSM-X);
//   - Synth(n, σ): n polygons whose edge counts follow a log-normal
//     distribution with parameter σ (paper §5, Fig. 14), used for the
//     skew experiments;
//   - replication (OSM-10G style): the same geometries repeated with
//     fresh ids, scaling data volume without changing its distribution.
package synth

import (
	"io"
	"math"
	"math/rand"
	"strconv"

	"atgis/internal/geojson"
	"atgis/internal/geom"
	"atgis/internal/osmxml"
	"atgis/internal/wkt"
)

// Extent is the world extent the generators draw from.
var Extent = geom.Box{MinX: -180, MinY: -85, MaxX: 180, MaxY: 85}

// Config controls generation.
type Config struct {
	Seed int64
	// N is the number of features.
	N int
	// Sigma is the log-normal σ of the per-polygon edge count; 0 picks
	// a mild default (0.5).
	Sigma float64
	// MeanEdges sets the log-normal scale (median edge count).
	MeanEdges float64
	// MultiPolyFrac / LineFrac control the geometry-type mix; the
	// remainder are simple polygons.
	MultiPolyFrac float64
	LineFrac      float64
	// MetadataBytes adds a free-form properties payload of roughly this
	// many bytes per feature (exercises the metadata-parsing paths).
	MetadataBytes int
	// Replicate emits every feature this many times with distinct ids
	// (the OSM-10G construction); 0 or 1 means once.
	Replicate int
	// ExtentScale shrinks the area features are drawn from (0 or 1 =
	// the full world extent). Smaller values increase spatial density,
	// emulating the urban concentrations of real OSM data that make
	// join candidate sets large.
	ExtentScale float64
}

// Generator produces features deterministically from a seed.
type Generator struct {
	cfg Config
	rng *rand.Rand
}

// New returns a generator.
func New(cfg Config) *Generator {
	if cfg.MeanEdges <= 0 {
		cfg.MeanEdges = 12
	}
	if cfg.Sigma <= 0 {
		cfg.Sigma = 0.5
	}
	return &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// edgeCount draws a log-normal edge count, clamped to [3, 5000].
func (g *Generator) edgeCount() int {
	n := int(math.Round(g.cfg.MeanEdges * math.Exp(g.rng.NormFloat64()*g.cfg.Sigma)))
	if n < 3 {
		n = 3
	}
	if n > 5000 {
		n = 5000
	}
	return n
}

// randomCentre picks a shape centre within the (possibly scaled) extent.
func (g *Generator) randomCentre() (float64, float64) {
	scale := g.cfg.ExtentScale
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	w := (Extent.MaxX - Extent.MinX) * scale
	h := (Extent.MaxY - Extent.MinY) * scale
	cx := Extent.MinX + g.rng.Float64()*w
	cy := Extent.MinY + g.rng.Float64()*h
	return cx, cy
}

// polygon builds a star-convex polygon with the given number of edges
// around a random centre. Radii vary so shapes are irregular but simple.
func (g *Generator) polygon(edges int) geom.Polygon {
	cx, cy := g.randomCentre()
	return g.polygonAt(cx, cy, edges)
}

func (g *Generator) polygonAt(cx, cy float64, edges int) geom.Polygon {
	base := 0.02 + g.rng.Float64()*0.5 // degrees
	ring := make(geom.Ring, 0, edges+1)
	for i := 0; i < edges; i++ {
		a := 2 * math.Pi * float64(i) / float64(edges)
		r := base * (0.6 + 0.4*g.rng.Float64())
		ring = append(ring, geom.Point{X: cx + r*math.Cos(a), Y: cy + r*math.Sin(a)})
	}
	return geom.Polygon{ring.Canonical()}
}

func (g *Generator) lineString(edges int) geom.LineString {
	cx := Extent.MinX + g.rng.Float64()*(Extent.MaxX-Extent.MinX)
	cy := Extent.MinY + g.rng.Float64()*(Extent.MaxY-Extent.MinY)
	pts := make(geom.LineString, 0, edges+1)
	x, y := cx, cy
	for i := 0; i <= edges; i++ {
		pts = append(pts, geom.Point{X: x, Y: y})
		x += (g.rng.Float64() - 0.5) * 0.1
		y += (g.rng.Float64() - 0.5) * 0.1
	}
	return pts
}

const metaAlphabet = "abcdefghijklmnopqrstuvwxyz {}[]:,\\\"0123456789"

// metadata builds a free-form properties payload; it deliberately
// includes structural characters (escaped) to exercise the paper's
// observation that metadata makes splitting unsound.
func (g *Generator) metadata(n int) string {
	if n <= 0 {
		return ""
	}
	out := make([]byte, 0, n)
	for len(out) < n {
		c := metaAlphabet[g.rng.Intn(len(metaAlphabet))]
		switch c {
		case '"', '\\':
			out = append(out, '\\', c)
		default:
			out = append(out, c)
		}
	}
	return string(out)
}

// Feature generates the i-th feature.
func (g *Generator) Feature(id int64) geom.Feature {
	f := geom.Feature{ID: id}
	kind := g.rng.Float64()
	edges := g.edgeCount()
	switch {
	case kind < g.cfg.MultiPolyFrac:
		// Multipolygon parts cluster near one centre, like the member
		// ways of an OSM multipolygon relation.
		parts := 2 + g.rng.Intn(3)
		cx, cy := g.randomCentre()
		mp := make(geom.MultiPolygon, 0, parts)
		for p := 0; p < parts; p++ {
			dx := (g.rng.Float64() - 0.5) * 3
			dy := (g.rng.Float64() - 0.5) * 3
			mp = append(mp, g.polygonAt(cx+dx, cy+dy, maxInt(3, edges/parts)))
		}
		f.Geom = mp
	case kind < g.cfg.MultiPolyFrac+g.cfg.LineFrac:
		f.Geom = g.lineString(edges)
	default:
		f.Geom = g.polygon(edges)
	}
	if g.cfg.MetadataBytes > 0 {
		f.Properties = map[string]string{
			"name": "feature-" + strconv.FormatInt(id, 10),
			"note": g.metadata(g.cfg.MetadataBytes),
		}
	}
	return f
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Each invokes fn for every generated feature (including replication).
func (g *Generator) Each(fn func(f *geom.Feature)) {
	reps := g.cfg.Replicate
	if reps < 1 {
		reps = 1
	}
	id := int64(1)
	for i := 0; i < g.cfg.N; i++ {
		f := g.Feature(id)
		id++
		fn(&f)
		for r := 1; r < reps; r++ {
			// Replication keeps the geometry, changes the id (paper's
			// OSM-10G construction).
			rf := f
			rf.ID = id
			id++
			fn(&rf)
		}
	}
}

// WriteGeoJSON generates the dataset as a GeoJSON FeatureCollection.
func (g *Generator) WriteGeoJSON(w io.Writer) error {
	out := geojson.NewWriter(w)
	g.Each(func(f *geom.Feature) { out.WriteFeature(f) })
	return out.Close()
}

// WriteWKT generates the dataset as id-tab-WKT lines.
func (g *Generator) WriteWKT(w io.Writer) error {
	out := wkt.NewWriter(w)
	g.Each(func(f *geom.Feature) { out.WriteFeature(f) })
	return out.Flush()
}

// WriteOSMXML generates the dataset as OSM XML: every polygon vertex
// becomes a node, every ring or line a way, every multipolygon a
// relation — reproducing the format's separation of point data from
// topology that makes OSM-X the slowest format (paper Fig. 12).
func (g *Generator) WriteOSMXML(w io.Writer) error {
	out := osmxml.NewWriter(w)
	nodeID := int64(1)
	wayID := int64(1)
	relID := int64(1)

	// OSM files list all nodes before ways before relations; generate
	// features first, buffering topology.
	type wayRec struct {
		id   int64
		refs []int64
		tags map[string]string
	}
	type relRec struct {
		id      int64
		members []osmxml.Member
		tags    map[string]string
	}
	var ways []wayRec
	var rels []relRec

	emitRing := func(r geom.Ring) int64 {
		rr := r.Canonical()
		refs := make([]int64, 0, len(rr))
		first := nodeID
		for i, p := range rr {
			if i == len(rr)-1 {
				refs = append(refs, first) // close with the first node
				break
			}
			out.WriteNode(nodeID, p)
			refs = append(refs, nodeID)
			nodeID++
		}
		ways = append(ways, wayRec{id: wayID, refs: refs})
		wayID++
		return wayID - 1
	}

	g.Each(func(f *geom.Feature) {
		switch t := f.Geom.(type) {
		case geom.Polygon:
			if len(t) > 0 {
				id := emitRing(t[0])
				ways[len(ways)-1].tags = map[string]string{"building": "yes"}
				_ = id
			}
		case geom.MultiPolygon:
			var members []osmxml.Member
			for _, poly := range t {
				if len(poly) == 0 {
					continue
				}
				id := emitRing(poly[0])
				members = append(members, osmxml.Member{Type: "way", Ref: id, Role: "outer"})
			}
			rels = append(rels, relRec{
				id:      relID,
				members: members,
				tags:    map[string]string{"type": "multipolygon"},
			})
			relID++
		case geom.LineString:
			refs := make([]int64, 0, len(t))
			for _, p := range t {
				out.WriteNode(nodeID, p)
				refs = append(refs, nodeID)
				nodeID++
			}
			ways = append(ways, wayRec{id: wayID, refs: refs, tags: map[string]string{"highway": "path"}})
			wayID++
		}
	})
	for _, w := range ways {
		out.WriteWay(w.id, w.refs, w.tags)
	}
	for _, r := range rels {
		out.WriteRelation(r.id, r.members, r.tags)
	}
	return out.Close()
}
