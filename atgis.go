// Package atgis is a highly-parallel spatial query processor over raw
// spatial data files, reproducing "AT-GIS: Highly Parallel Spatial Query
// Processing with Associative Transducers" (Ogden, Thomas, Pietzuch —
// SIGMOD 2016).
//
// AT-GIS executes containment, aggregation and join queries directly on
// GeoJSON, WKT and OpenStreetMap XML input with no loading or indexing
// phase. Parsing, extraction and query operators are fused into one
// data-parallel pipeline using associative transducers: every worker runs
// the whole pipeline over an arbitrary block of the input and per-block
// fragments merge associatively.
//
// The API is layered:
//
//   - A Source owns the raw byte view and its lifecycle: OpenMapped
//     memory-maps a file, FromBytes wraps a buffer, ReaderSource buffers
//     piped input.
//   - An Engine owns a shared worker pool and runs any number of
//     concurrent queries against one or more open Sources.
//   - A PreparedQuery is compiled once from a query.Spec and executed
//     many times with context cancellation; results either summarise in
//     one blocking call (Execute) or stream feature-by-feature (Stream).
//
// Quickstart:
//
//	src, err := atgis.OpenMapped("data.geojson", atgis.AutoDetect)
//	defer src.Close()
//	eng := atgis.NewEngine(atgis.EngineConfig{})
//	defer eng.Close()
//	pq, err := eng.Prepare(&query.Spec{
//	        Kind: query.Aggregation,
//	        Ref:  region,
//	        Pred: query.PredIntersects,
//	        WantArea: true, WantPerimeter: true,
//	}, atgis.Options{})
//	res, err := pq.Execute(ctx, src)
//	fmt.Println(res.Res.Count, res.Res.SumArea, res.Stats.ThroughputMBs())
package atgis

import (
	"atgis/internal/geom"
	"atgis/internal/join"
	"atgis/internal/partition"
	"atgis/internal/pipeline"
	"atgis/internal/query"
)

// Mode selects the parallel execution strategy (paper §3.5, §5):
// fully-associative transducers speculate over parser states and split
// anywhere; partially-associative transducers search for known-state
// boundaries and run optimised sequential parsers per block.
type Mode uint8

// Execution modes.
const (
	// PAT is partially-associative execution (AT-GIS-PAT).
	PAT Mode = iota
	// FAT is fully-associative execution (AT-GIS-FAT).
	FAT
)

func (m Mode) String() string {
	if m == FAT {
		return "FAT"
	}
	return "PAT"
}

// Options tunes one query's execution. How many workers run it is not
// among them: that is the engine pool's size (EngineConfig.Workers).
type Options struct {
	// BlockSize is the target block size in bytes (0 = the engine
	// default, which itself defaults to 1 MiB).
	BlockSize int
	// Mode selects FAT or PAT execution of the cold pass over a whole
	// GeoJSON source. Shard ranges and warm passes are always PAT, and WKT
	// and OSM XML always use boundary splitting.
	Mode Mode
	// PropKeys lists metadata property keys to extract (GeoJSON).
	PropKeys []string
}

func (o Options) blockSize() int {
	if o.BlockSize > 0 {
		return o.BlockSize
	}
	return 1 << 20
}

// Result bundles a query result with execution statistics.
type Result struct {
	Res   *query.Result
	Stats pipeline.Stats
	// Repaired counts PAT blocks re-parsed after mis-splits; Reprocessed
	// counts FAT blocks re-parsed in context: speculation invalidated, or
	// a structural error to report where the sequential parser does.
	Repaired, Reprocessed int
}

// JoinSpec describes a two-pass spatial join (Table 3): the dataset is
// split into two sides by Mask and intersecting pairs across sides are
// reported. The first pass is the parallel bounding pipeline of every
// format — workers extract each feature's bounding box, the ordered fold
// bins it into the one pair of partition sets — so per-cell insertion
// order is input order whatever the block size or worker count. (Fig. 15's
// other arm, a partition set per thread merged afterwards, is not
// reproduced: a fragment costs a full grid of cells per block.)
type JoinSpec struct {
	// Mask routes each feature to side A (bit query.SideA) and/or side B.
	Mask func(f *geom.Feature) uint8
	// CellSize is the spatial partition size in degrees (paper §5.6):
	// 0 means 1, and a size outside [MinJoinCell, 360] is an error.
	CellSize float64
	// Store selects the partition container (array vs linked list).
	Store partition.StoreKind
	// OrderWindow is read nowhere: JoinStream always emits pairs in
	// deterministic cell order.
	//
	// Deprecated: every join stream is ordered; setting it has no effect.
	OrderWindow int
	// CellLo / CellHi restrict the join sweep to the partition-grid cell
	// band [CellLo, CellHi) — the join's horizontal-sharding unit used by
	// atgis-serve's cluster mode. The reference-point dedup makes each
	// result pair owned by exactly one cell, so bands that tile the grid
	// partition the pair set exactly (and their streams concatenate into
	// full-sweep cell order). CellHi zero means the whole grid. The
	// partition phase still scans the full input: sharding saves sweep
	// work, not parsing.
	CellLo, CellHi int
	// BoundsSafeMask declares that Mask depends only on a feature's ID,
	// Offset and bounding box — never on coordinates beyond the bounds.
	// Sidecar-enabled engines then rebuild the partition sets straight
	// from the index tape (id, offset, bbox), skipping the partition
	// pass over the raw bytes entirely, and cold passes skip building
	// geometry. Either way such a mask sees the bounds as the feature's
	// Geom, through one polygon reused for every feature, so it must not
	// keep f.Geom. A mask that inspects real geometry (e.g. perimeter
	// filters) must leave this false. A nil Mask is always bounds-safe.
	BoundsSafeMask bool
}

// JoinResult carries the joined pairs and phase timings (Fig. 11).
type JoinResult struct {
	Pairs          []join.Pair
	PartitionStats pipeline.Stats
	JoinStats      join.Stats
	Extent         geom.Box
}

// CombinedSpec is Table 3's combined query: two perimeter-filtered
// sides of the dataset are spatially joined and the areas of the
// pairwise unions are summed:
//
//	SELECT ST_Area(ST_Union(d1.geom, d2.geom))
//	FROM data d1, data d2
//	WHERE ST_Perimeter(d1.geom) > T1 AND ST_Perimeter(d2.geom) < T2
//	  AND ST_Intersects(d1.geom, d2.geom)
type CombinedSpec struct {
	// T1 and T2 are the perimeter thresholds (meters) for sides A and B.
	T1, T2 float64
	// Dist selects the perimeter computation.
	Dist geom.DistanceMethod
	// CellSize is the join partition size in degrees, bounded as
	// JoinSpec.CellSize is.
	CellSize float64
}

// CombinedResult reports the combined query outcome.
type CombinedResult struct {
	Pairs        int
	SumUnionArea float64 // m², spherical
	JoinResult   *JoinResult
}
