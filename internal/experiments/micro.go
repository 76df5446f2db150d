package experiments

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"atgis"
	"atgis/internal/geom"
	"atgis/internal/geom/kernel"
	"atgis/internal/lexer"
	"atgis/internal/query"
	"atgis/internal/synth"
)

// MicroResult is one machine-readable benchmark measurement, mirroring
// the fields `go test -bench -benchmem` reports so perf trajectory can
// be recorded across PRs (BENCH_*.json).
type MicroResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_op"`
	MBPerSec    float64 `json:"mb_s"`
	BytesPerOp  int64   `json:"bytes_op"`
	AllocsPerOp int64   `json:"allocs_op"`
}

func microDataset(cfg Config, format atgis.Format, n int) *atgis.Dataset {
	scfg := synth.Config{Seed: cfg.Seed, N: n, MultiPolyFrac: 0.15, LineFrac: 0.15, MetadataBytes: 60}
	var buf bytes.Buffer
	g := synth.New(scfg)
	var err error
	switch format {
	case atgis.WKT:
		err = g.WriteWKT(&buf)
	case atgis.OSMXML:
		err = g.WriteOSMXML(&buf)
	default:
		err = g.WriteGeoJSON(&buf)
	}
	if err != nil {
		panic(err)
	}
	ds, err := atgis.FromBytes(buf.Bytes(), format)
	if err != nil {
		panic(err)
	}
	return ds
}

func microResult(name string, bytes int64, r testing.BenchmarkResult) MicroResult {
	out := MicroResult{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
	if secs := r.T.Seconds(); secs > 0 && bytes > 0 {
		out.MBPerSec = float64(bytes) * float64(r.N) / (1 << 20) / secs
	}
	return out
}

// Micro runs the headline throughput/allocation benchmarks (Fig. 9a
// containment, Fig. 12 formats, the JSON lexer stages) via
// testing.Benchmark and returns machine-readable results. The query
// datasets default to 2000/1500 features (the cross-PR BENCH_*.json
// scale); -features and -workers override when set.
func Micro(cfg Config) []MicroResult {
	queryN, formatN := 2000, 1500
	if cfg.Features > 0 {
		queryN = cfg.Features
		formatN = cfg.Features * 3 / 4
	}
	cfg = cfg.Defaults()
	var out []MicroResult

	qspec := func() *query.Spec {
		return &query.Spec{
			Kind:        query.Containment,
			Ref:         query.ScaleBox(synth.Extent, 0.25).AsPolygon(),
			Pred:        query.PredIntersects,
			Dist:        geom.Haversine,
			KeepMatches: true,
		}
	}
	aspec := func() *query.Spec {
		return &query.Spec{
			Kind:     query.Aggregation,
			Ref:      query.ScaleBox(synth.Extent, 0.25).AsPolygon(),
			Pred:     query.PredIntersects,
			Dist:     geom.Haversine,
			WantArea: true, WantPerimeter: true,
		}
	}

	queryBench := func(name string, ds *atgis.Dataset, spec *query.Spec, mode atgis.Mode) {
		opt := atgis.Options{Mode: mode, BlockSize: 64 << 10, Workers: cfg.MaxWorkers}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := transient.Query(context.Background(), ds, spec, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
		out = append(out, microResult(name, int64(len(ds.Data)), r))
	}

	gj := microDataset(cfg, atgis.GeoJSON, queryN)
	queryBench("Fig9aContainment/PAT", gj, qspec(), atgis.PAT)
	queryBench("Fig9aContainment/FAT", gj, qspec(), atgis.FAT)

	// The same containment pass through the layered API: shared engine
	// pool + query compiled once + per-run context. Tracks the pool's
	// overhead relative to the transient-worker rows above.
	engineBench := func(name string, mode atgis.Mode) {
		eng := atgis.NewEngine(atgis.EngineConfig{Workers: cfg.MaxWorkers})
		defer eng.Close()
		pq, err := eng.Prepare(qspec(), atgis.Options{Mode: mode, BlockSize: 64 << 10})
		if err != nil {
			panic(err)
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pq.Execute(context.Background(), gj); err != nil {
					b.Fatal(err)
				}
			}
		})
		out = append(out, microResult(name, int64(len(gj.Data)), r))
	}
	engineBench("EnginePrepared/PAT", atgis.PAT)
	engineBench("EnginePrepared/FAT", atgis.FAT)

	// Repeat-pass containment over a file-backed source with a selective
	// window (~5% linear scale, well under 10% selectivity): the /cold
	// variant re-parses every pass, the /warm variant records the
	// structural sidecar on its primer pass and then skips boundary
	// finding plus every bbox-pruned feature. The pair quantifies the
	// sidecar's warm-pass speedup; /cold also anchors the comparison on
	// the same mmap'd source the sidecar path uses.
	warmSpec := func() *query.Spec {
		return &query.Spec{
			Kind:        query.Containment,
			Ref:         query.ScaleBox(synth.Extent, 0.05).AsPolygon(),
			Pred:        query.PredIntersects,
			Dist:        geom.Haversine,
			KeepMatches: true,
		}
	}
	sidecarBench := func(name string, sc atgis.SidecarMode) {
		dir, err := os.MkdirTemp("", "atgis-bench-*")
		if err != nil {
			panic(err)
		}
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, "fig9a.geojson")
		if err := os.WriteFile(path, gj.Data, 0o600); err != nil {
			panic(err)
		}
		eng := atgis.NewEngine(atgis.EngineConfig{Workers: cfg.MaxWorkers, Sidecar: sc})
		defer eng.Close()
		src, err := atgis.OpenMapped(path, atgis.GeoJSON)
		if err != nil {
			panic(err)
		}
		defer src.Close()
		opt := atgis.Options{Mode: atgis.FAT, BlockSize: 64 << 10, Workers: cfg.MaxWorkers}
		// Primer pass outside the timed region: both variants pay one
		// full parse; the warm variant records its tape here.
		if _, err := eng.Query(context.Background(), src, warmSpec(), opt); err != nil {
			panic(err)
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Query(context.Background(), src, warmSpec(), opt); err != nil {
					b.Fatal(err)
				}
			}
		})
		out = append(out, microResult(name, int64(len(gj.Data)), r))
	}
	sidecarBench("Fig9aContainmentWarm/cold", atgis.SidecarOff)
	sidecarBench("Fig9aContainmentWarm/warm", atgis.SidecarReadWrite)

	// Join throughput (Fig. 9c's setup): the two-pass PBSM join, buffered,
	// on transient workers.
	joinN := 600
	if cfg.Features > 0 {
		joinN = cfg.Features * 3 / 4
	}
	jds := microDataset(cfg, atgis.GeoJSON, joinN)
	jmask := func(f *geom.Feature) uint8 {
		if f.ID%2 == 0 {
			return query.SideA
		}
		return query.SideB
	}
	jspec := atgis.JoinSpec{Mask: jmask, CellSize: 10}
	jopt := atgis.Options{Mode: atgis.FAT, BlockSize: 64 << 10, Workers: cfg.MaxWorkers}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := transient.Join(context.Background(), jds, jspec, jopt); err != nil {
				b.Fatal(err)
			}
		}
	})
	out = append(out, microResult("Fig9cJoin", int64(len(jds.Data)), r))

	// The same join through the pooled engine's streaming path: the
	// sweep runs as cell-batch tasks on the shared worker pool, so this
	// tracks the re-quantised execution model's overhead.
	jeng := atgis.NewEngine(atgis.EngineConfig{Workers: cfg.MaxWorkers})
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pairs := jeng.JoinStream(context.Background(), jds, jspec, jopt)
			for pairs.Next() {
			}
			if err := pairs.Err(); err != nil {
				b.Fatal(err)
			}
		}
	})
	jeng.Close()
	out = append(out, microResult("EngineJoinStream", int64(len(jds.Data)), r))

	// RefinementKernels: the branch-minimized batched point-in-polygon
	// kernel against its scalar oracle at the refinement batch scale
	// (4096 candidate points × a 64-vertex reference ring). Same
	// arithmetic, same results — the pair measures what the SoA layout
	// and the hoisted boundary pass buy on a dense batch, and gates this
	// PR (kernel must hold ≥1.5× the scalar path).
	{
		const np, nv = 4096, 64
		ring := make(geom.Ring, nv+1)
		for i := 0; i < nv; i++ {
			ang := 2 * math.Pi * float64(i) / nv
			ring[i] = geom.Point{X: math.Cos(ang) * 40, Y: math.Sin(ang) * 40}
		}
		ring[nv] = ring[0]
		poly := geom.Polygon{ring}
		px := make([]float64, np)
		py := make([]float64, np)
		rng := rand.New(rand.NewSource(int64(cfg.Seed)))
		for i := range px {
			px[i] = rng.Float64()*100 - 50
			py[i] = rng.Float64()*100 - 50
		}
		var slab kernel.PolySlab
		slab.SetPolygon(poly)
		var loc kernel.LocateOut
		batchBytes := int64(np * 2 * 8) // the coordinate slab one op streams
		r = testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kernel.LocateBatch(&slab, px, py, &loc)
			}
		})
		out = append(out, microResult("RefinementKernels/kernel", batchBytes, r))
		r = testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				inside := 0
				for k := 0; k < np; k++ {
					if geom.LocatePointInPolygon(geom.Point{X: px[k], Y: py[k]}, poly) == geom.Inside {
						inside++
					}
				}
				if inside == 0 {
					b.Fatal("no point landed inside")
				}
			}
		})
		out = append(out, microResult("RefinementKernels/scalar", batchBytes, r))
	}

	fm := microDataset(cfg, atgis.GeoJSON, formatN)
	queryBench("Fig12Formats/GeoJSON-PAT", fm, aspec(), atgis.PAT)
	queryBench("Fig12Formats/GeoJSON-FAT", fm, aspec(), atgis.FAT)
	wk := microDataset(cfg, atgis.WKT, formatN)
	queryBench("Fig12Formats/WKT", wk, aspec(), atgis.PAT)
	ox := microDataset(cfg, atgis.OSMXML, formatN)
	queryBench("Fig12Formats/OSMXML", ox, aspec(), atgis.PAT)

	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			lexer.ScanJSON(lexer.JSONDefault, gj.Data, 0, func(lexer.Token) { n++ })
			if n == 0 {
				b.Fatal("no tokens")
			}
		}
	})
	out = append(out, microResult("LexerThroughput/Sequential", int64(len(gj.Data)), r))

	r = testing.Benchmark(func(b *testing.B) {
		// Pooled speculator: the steady-state path ProcessBlockFAT runs.
		s := lexer.AcquireSpeculator()
		defer lexer.ReleaseSpeculator(s)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if variants := s.Lex(gj.Data, 0); len(variants) == 0 {
				b.Fatal("no variants")
			}
		}
	})
	out = append(out, microResult("LexerThroughput/Speculative", int64(len(gj.Data)), r))

	return out
}
