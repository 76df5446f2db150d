// Benchmarks regenerating the paper's tables and figures as testing.B
// targets. Each benchmark measures the steady-state cost of the
// corresponding experiment's inner operation; `atgis-bench` prints the
// full table/figure series.
package atgis

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"atgis/internal/baselines/colscan"
	"atgis/internal/baselines/rtree"
	"atgis/internal/geom"
	"atgis/internal/lexer"
	"atgis/internal/partition"
	"atgis/internal/query"
	"atgis/internal/synth"
)

func benchDataset(b *testing.B, format Format, n int, sigma float64) *Dataset {
	b.Helper()
	cfg := synth.Config{Seed: 4242, N: n, MultiPolyFrac: 0.15, LineFrac: 0.15, MetadataBytes: 60}
	if sigma > 0 {
		cfg.Sigma = sigma
		cfg.MetadataBytes = 0
		cfg.MultiPolyFrac = 0
		cfg.LineFrac = 0
	}
	var buf bytes.Buffer
	var err error
	g := synth.New(cfg)
	switch format {
	case GeoJSON:
		err = g.WriteGeoJSON(&buf)
	case WKT:
		err = g.WriteWKT(&buf)
	case OSMXML:
		err = g.WriteOSMXML(&buf)
	}
	if err != nil {
		b.Fatal(err)
	}
	ds, err := FromBytes(buf.Bytes(), format)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func benchSpec(kind query.Kind) *query.Spec {
	s := &query.Spec{
		Kind: kind,
		Ref:  query.ScaleBox(synth.Extent, 0.25).AsPolygon(),
		Pred: query.PredIntersects,
		Dist: geom.Haversine,
	}
	if kind == query.Aggregation {
		s.WantArea, s.WantPerimeter = true, true
	} else {
		s.KeepMatches = true
	}
	return s
}

func runQueryBench(b *testing.B, ds *Dataset, kind query.Kind, mode Mode) {
	b.Helper()
	spec := benchSpec(kind)
	opt := Options{Mode: mode, BlockSize: 64 << 10}
	eng := testEngine(b, 0) // GOMAXPROCS workers: -cpu sweeps the pool
	b.SetBytes(int64(len(ds.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(context.Background(), ds, spec, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9aContainment covers Fig. 9a: containment scaling (run
// with -cpu 1,2,4 to sweep cores).
func BenchmarkFig9aContainment(b *testing.B) {
	ds := benchDataset(b, GeoJSON, 2000, 0)
	for _, mode := range []Mode{PAT, FAT} {
		b.Run(mode.String(), func(b *testing.B) {
			runQueryBench(b, ds, query.Containment, mode)
		})
	}
}

// BenchmarkFig9bAggregation covers Fig. 9b: aggregation scaling.
func BenchmarkFig9bAggregation(b *testing.B) {
	ds := benchDataset(b, GeoJSON, 2000, 0)
	for _, mode := range []Mode{PAT, FAT} {
		b.Run(mode.String(), func(b *testing.B) {
			runQueryBench(b, ds, query.Aggregation, mode)
		})
	}
}

// BenchmarkFig9cJoin covers Fig. 9c: join scaling.
func BenchmarkFig9cJoin(b *testing.B) {
	ds := benchDataset(b, GeoJSON, 600, 0)
	mask := func(f *geom.Feature) uint8 {
		if f.ID%2 == 0 {
			return query.SideA
		}
		return query.SideB
	}
	eng := testEngine(b, 0)
	b.SetBytes(int64(len(ds.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Join(context.Background(), ds, JoinSpec{Mask: mask, CellSize: 10}, Options{Mode: FAT, BlockSize: 64 << 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10Systems covers Fig. 10: AT-GIS vs loaded baselines on
// the aggregation query (cluster emulation is excluded here because its
// simulated sleeps would dominate testing.B timing; atgis-bench -exp
// fig10 includes it).
func BenchmarkFig10Systems(b *testing.B) {
	ds := benchDataset(b, GeoJSON, 2000, 0)
	spec := benchSpec(query.Aggregation)
	feats, err := testEngine(b, 0).CollectFeatures(context.Background(), ds, Options{})
	if err != nil {
		b.Fatal(err)
	}
	ref := spec.Ref

	b.Run("AT-GIS-PAT", func(b *testing.B) { runQueryBench(b, ds, query.Aggregation, PAT) })
	b.Run("AT-GIS-FAT", func(b *testing.B) { runQueryBench(b, ds, query.Aggregation, FAT) })
	b.Run("rtree-G", func(b *testing.B) {
		it := make([]rtree.Item, len(feats))
		for i, f := range feats {
			it[i] = rtree.Item{Box: f.Geom.Bound(), ID: f.ID, Geom: f.Geom}
		}
		tr := rtree.Build(it, 16)
		eng := &rtree.Engine{Tree: tr, Refine: true}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Aggregation(ref, geom.Haversine)
		}
	})
	b.Run("colscan-G", func(b *testing.B) {
		cs := colscan.Load(feats, true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cs.Aggregation(ref, geom.Haversine)
		}
	})
}

// BenchmarkFig11PartitionVsJoin covers Fig. 11: the two join phases.
func BenchmarkFig11PartitionVsJoin(b *testing.B) {
	ds := benchDataset(b, GeoJSON, 600, 0)
	mask := func(f *geom.Feature) uint8 {
		if f.ID%2 == 0 {
			return query.SideA
		}
		return query.SideB
	}
	eng := testEngine(b, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jr, err := eng.Join(context.Background(), ds, JoinSpec{Mask: mask, CellSize: 5}, Options{Mode: FAT, BlockSize: 64 << 10})
		if err != nil {
			b.Fatal(err)
		}
		_ = jr.PartitionStats
	}
}

// BenchmarkFig12Formats covers Fig. 12: per-format throughput.
func BenchmarkFig12Formats(b *testing.B) {
	for _, f := range []struct {
		name   string
		format Format
		mode   Mode
	}{
		{"GeoJSON-PAT", GeoJSON, PAT},
		{"GeoJSON-FAT", GeoJSON, FAT},
		{"WKT", WKT, PAT},
		{"OSMXML", OSMXML, PAT},
	} {
		b.Run(f.name, func(b *testing.B) {
			ds := benchDataset(b, f.format, 1500, 0)
			runQueryBench(b, ds, query.Aggregation, f.mode)
		})
	}
}

// BenchmarkFig13Filtering covers Fig. 13: the filter stage under both
// distance methods at two selectivities.
func BenchmarkFig13Filtering(b *testing.B) {
	ds := benchDataset(b, GeoJSON, 2000, 0)
	for _, dist := range []geom.DistanceMethod{geom.SphericalProjection, geom.Andoyer} {
		for _, frac := range []float64{0.5, 0.001} {
			b.Run(fmt.Sprintf("%v/sel=%g", dist, frac), func(b *testing.B) {
				spec := &query.Spec{
					Kind: query.Aggregation,
					Ref:  query.ScaleBox(synth.Extent, frac).AsPolygon(),
					Pred: query.PredIntersects,
					Dist: dist, WantPerimeter: true,
				}
				opt := Options{BlockSize: 64 << 10}
				eng := testEngine(b, 0)
				b.SetBytes(int64(len(ds.Data)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.Query(context.Background(), ds, spec, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig14Skew covers Fig. 14: PAT vs FAT under σ skew.
func BenchmarkFig14Skew(b *testing.B) {
	for _, sigma := range []float64{0.5, 3} {
		ds := benchDataset(b, GeoJSON, 800, sigma)
		for _, mode := range []Mode{PAT, FAT} {
			b.Run(fmt.Sprintf("sigma=%g/%v", sigma, mode), func(b *testing.B) {
				runQueryBench(b, ds, query.Aggregation, mode)
			})
		}
	}
}

// BenchmarkFig15Partitioning covers Fig. 15: store kind at two cell
// sizes.
func BenchmarkFig15Partitioning(b *testing.B) {
	ds := benchDataset(b, GeoJSON, 600, 0)
	mask := func(f *geom.Feature) uint8 {
		if f.ID%2 == 0 {
			return query.SideA
		}
		return query.SideB
	}
	for _, cell := range []float64{0.5, 4} {
		for _, store := range []partition.StoreKind{partition.ArrayStore, partition.ListStore} {
			name := fmt.Sprintf("cell=%g/%v", cell, store)
			b.Run(name, func(b *testing.B) {
				eng := testEngine(b, 0)
				for i := 0; i < b.N; i++ {
					_, err := eng.Join(context.Background(), ds, JoinSpec{
						Mask: mask, CellSize: cell, Store: store,
					}, Options{Mode: FAT, BlockSize: 64 << 10})
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkLexerThroughput isolates the first pipeline stage: the JSON
// structural lexer (the dominant cost, paper §4.4 reports ≥90% of CPU
// time in parsing/extraction). Sequential covers the known-start-state
// scan; Speculative covers the full start-state set (the reference model
// of FAT's lexer speculation); Summary is what the FAT splitter runs
// instead, the tokenless start-state → end-state scan.
func BenchmarkLexerThroughput(b *testing.B) {
	ds := benchDataset(b, GeoJSON, 2000, 0)
	b.Run("Sequential", func(b *testing.B) {
		b.SetBytes(int64(len(ds.Data)))
		for i := 0; i < b.N; i++ {
			n := 0
			lexer.ScanJSON(lexer.JSONDefault, ds.Data, 0, func(lexer.Token) { n++ })
			if n == 0 {
				b.Fatal("no tokens")
			}
		}
	})
	b.Run("Speculative", func(b *testing.B) {
		// Pooled speculator: buffers warm, as bench/'s lexer.json_spec_mb_s
		// probe runs it. No engine pass lexes this way any more.
		s := lexer.AcquireSpeculator()
		defer lexer.ReleaseSpeculator(s)
		b.SetBytes(int64(len(ds.Data)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if variants := s.Lex(ds.Data, 0); len(variants) == 0 {
				b.Fatal("no variants")
			}
		}
	})
	b.Run("Summary", func(b *testing.B) {
		b.SetBytes(int64(len(ds.Data)))
		for i := 0; i < b.N; i++ {
			if end := lexer.SummarizeJSON(lexer.JSONDefault, ds.Data); end != lexer.JSONDefault {
				b.Fatalf("document ends in lexer state %d", end)
			}
		}
	})
}
