package atgis

import (
	"bytes"
	"context"
	"math"
	"testing"

	"atgis/internal/geom"
	"atgis/internal/query"
)

// shardSource materialises a synthetic dataset as a Source.
func shardSource(t *testing.T, format Format, n int) Source {
	t.Helper()
	ds := genDataset(t, format, n)
	src, err := ReaderSource(bytes.NewReader(ds.Data), format)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	return src
}

// rawTiles carves [0, total) into k contiguous raw ranges the way the
// coordinator plans shards — deliberately ignorant of feature
// boundaries.
func rawTiles(total int64, k int) []ShardRange {
	step := total / int64(k)
	out := make([]ShardRange, k)
	var at int64
	for i := range out {
		end := at + step
		if i == k-1 {
			end = total
		}
		out[i] = ShardRange{Start: at, End: end}
		at = end
	}
	return out
}

func TestAlignShardIdempotentAndAdjacent(t *testing.T) {
	for _, format := range []Format{GeoJSON, WKT} {
		src := shardSource(t, format, 200)
		n := int64(len(src.Bytes()))
		for _, k := range []int{1, 2, 3, 7} {
			tiles := rawTiles(n, k)
			var prev ShardRange
			for i, raw := range tiles {
				a, err := AlignShard(src, raw)
				if err != nil {
					t.Fatalf("%v k=%d tile %d: %v", format, k, i, err)
				}
				again, err := AlignShard(src, a)
				if err != nil || again != a {
					t.Fatalf("%v: alignment not idempotent: %+v -> %+v (%v)", format, a, again, err)
				}
				if i > 0 && a.Start != prev.End {
					// Adjacent tiles align the same raw offset, so the
					// ranges must chain exactly — the no-gap/no-overlap
					// invariant the cluster handshake checks.
					t.Fatalf("%v k=%d: tile %d starts at %d, previous ended at %d",
						format, k, i, a.Start, prev.End)
				}
				prev = a
			}
			if prev.End != n {
				t.Fatalf("%v k=%d: last tile ends at %d, want %d", format, k, prev.End, n)
			}
		}
		// Degenerate ranges: inside the header/first feature, at EOF,
		// and with out-of-range offsets.
		for _, raw := range []ShardRange{{1, 2}, {n, n + 50}, {-3, 4}, {5, -1}} {
			if _, err := AlignShard(src, raw); err != nil {
				t.Fatalf("%v: align %+v: %v", format, raw, err)
			}
		}
	}
}

func TestAlignShardRejectsOSM(t *testing.T) {
	src := shardSource(t, OSMXML, 50)
	if _, err := AlignShard(src, ShardRange{0, 10}); err == nil {
		t.Fatal("OSM XML byte-range alignment should be rejected (global node table)")
	}
	pq, err := testEngine(t, 0).Prepare(aggSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq.ExecuteShard(context.Background(), src, ShardRange{0, 10}); err == nil {
		t.Fatal("ExecuteShard over OSM XML should fail")
	}
}

// TestExecuteShardTilesMatchExecute is the scatter-gather soundness
// invariant: summing shard results over ranges that tile the source
// reproduces the single-pass result — counts and MBR exactly,
// float sums to within regrouping error.
func TestExecuteShardTilesMatchExecute(t *testing.T) {
	for _, format := range []Format{GeoJSON, WKT} {
		src := shardSource(t, format, 300)
		eng := NewEngine(EngineConfig{Workers: 4})
		defer eng.Close()
		pq, err := eng.Prepare(aggSpec(), Options{BlockSize: 2048})
		if err != nil {
			t.Fatal(err)
		}
		want, err := pq.Execute(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		if want.Res.Count == 0 {
			t.Fatalf("%v: reference pass matched nothing", format)
		}
		n := int64(len(src.Bytes()))
		for _, k := range []int{1, 2, 3, 5, 9} {
			var count, scanned int64
			var area, perim float64
			mbr := geom.EmptyBox()
			for i, raw := range rawTiles(n, k) {
				r, err := pq.ExecuteShard(context.Background(), src, raw)
				if err != nil {
					t.Fatalf("%v k=%d shard %d: %v", format, k, i, err)
				}
				count += r.Res.Count
				scanned += r.Res.Scanned
				area += r.Res.SumArea
				perim += r.Res.SumPerimeter
				mbr = mbr.Union(r.Res.MBR)
			}
			if count != want.Res.Count || scanned != want.Res.Scanned {
				t.Fatalf("%v k=%d: counts %d/%d, want %d/%d",
					format, k, count, scanned, want.Res.Count, want.Res.Scanned)
			}
			if mbr != want.Res.MBR {
				t.Fatalf("%v k=%d: MBR %+v, want %+v", format, k, mbr, want.Res.MBR)
			}
			if math.Abs(area-want.Res.SumArea) > 1e-9*math.Abs(want.Res.SumArea) {
				t.Fatalf("%v k=%d: area %v, want %v", format, k, area, want.Res.SumArea)
			}
			if math.Abs(perim-want.Res.SumPerimeter) > 1e-9*math.Abs(want.Res.SumPerimeter) {
				t.Fatalf("%v k=%d: perimeter %v, want %v", format, k, perim, want.Res.SumPerimeter)
			}
		}
	}
}

// TestStreamShardConcatenation: shard streams concatenate into exactly
// the single-pass stream, in the same input order — what lets the
// coordinator forward worker records verbatim.
func TestStreamShardConcatenation(t *testing.T) {
	for _, format := range []Format{GeoJSON, WKT} {
		src := shardSource(t, format, 250)
		eng := NewEngine(EngineConfig{Workers: 4})
		defer eng.Close()
		spec := &query.Spec{
			Kind: query.Containment,
			Ref:  query.ScaleBox(geom.Box{MinX: -180, MinY: -90, MaxX: 180, MaxY: 90}, 0.5).AsPolygon(),
			Pred: query.PredIntersects,
			Dist: geom.Haversine,
		}
		pq, err := eng.Prepare(spec, Options{BlockSize: 2048})
		if err != nil {
			t.Fatal(err)
		}
		collect := func(res *Results) []int64 {
			t.Helper()
			defer res.Close()
			var offs []int64
			for res.Next() {
				offs = append(offs, res.Feature().Offset)
			}
			if _, err := res.Summary(); err != nil {
				t.Fatal(err)
			}
			return offs
		}
		want := collect(pq.Stream(context.Background(), src))
		if len(want) == 0 {
			t.Fatalf("%v: reference stream matched nothing", format)
		}
		n := int64(len(src.Bytes()))
		for _, k := range []int{2, 4, 7} {
			var got []int64
			for _, raw := range rawTiles(n, k) {
				got = append(got, collect(pq.StreamShard(context.Background(), src, raw))...)
			}
			if len(got) != len(want) {
				t.Fatalf("%v k=%d: %d streamed, want %d", format, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%v k=%d: offset[%d] = %d, want %d", format, k, i, got[i], want[i])
				}
			}
		}
	}
}
