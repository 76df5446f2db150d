package atgis

// Differential correctness harness for the persistent sidecar index:
// every query mode and both join flavours run cold (SidecarOff), warm
// (index recorded, then served from memory and from disk) and against
// deliberately stale sidecars (bit-flipped, truncated, source mtime
// bumped). The rendered output — NDJSON record lines plus the
// result-bearing summary fields — must be byte-identical in every
// configuration. The shard axis runs the same queries over raw byte
// ranges (1, 2, 3 and 7 tiles cut wherever the arithmetic falls, plus a
// range inside the document wrapper): a shard is a restriction of the
// same block plan, so it must render identically under every sidecar
// state too, and its streams must concatenate into the unsharded one.
//
// The rendering deliberately covers only result-bearing state: Count,
// Scanned, the aggregate sums (compared as exact IEEE-754 bit
// patterns — the warm pass absorbs matched features in the same input
// order as a cold pass, so even float accumulation must agree
// bit-for-bit), the MBR, the buffered match list, streamed records and
// join pairs. Execution statistics (wall time, MB/s, block and worker
// counts, repair counters) are volatile by nature and excluded.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"atgis/internal/geom"
	"atgis/internal/query"
	"atgis/internal/sidecar"
	"atgis/internal/synth"
)

// writeSidecarCorpus writes a deterministic synthetic dataset in the
// given format and returns its path (inside a per-test temp dir, so
// `.atgx` siblings are cleaned up with it).
func writeSidecarCorpus(t *testing.T, format Format) string {
	t.Helper()
	dir := t.TempDir()
	var name string
	switch format {
	case GeoJSON:
		name = "corpus.geojson"
	case WKT:
		name = "corpus.wkt"
	case OSMXML:
		name = "corpus.osm"
	}
	f, err := os.Create(dir + "/" + name)
	if err != nil {
		t.Fatal(err)
	}
	g := synth.New(synth.Config{Seed: 20160626, N: 400, MultiPolyFrac: 0.15, LineFrac: 0.15, MetadataBytes: 40})
	switch format {
	case GeoJSON:
		err = g.WriteGeoJSON(f)
	case WKT:
		err = g.WriteWKT(f)
	case OSMXML:
		err = g.WriteOSMXML(f)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return f.Name()
}

func bits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

func renderBox(b geom.Box) string {
	return bits(b.MinX) + "," + bits(b.MinY) + "," + bits(b.MaxX) + "," + bits(b.MaxY)
}

// renderQueryResult renders the result-bearing fields of a query run.
func renderQueryResult(r *Result) string {
	var b strings.Builder
	res := r.Res
	fmt.Fprintf(&b, "count=%d scanned=%d area=%s perim=%s mbr=%s\n",
		res.Count, res.Scanned, bits(res.SumArea), bits(res.SumPerimeter), renderBox(res.MBR))
	for _, m := range res.Matches {
		fmt.Fprintf(&b, "match id=%d off=%d box=%s\n", m.ID, m.Offset, renderBox(m.Box))
	}
	return b.String()
}

// diffRecord is one NDJSON line of a streamed query: the match identity
// plus its per-feature aggregate contributions as exact bit patterns.
type diffRecord struct {
	ID    int64  `json:"id"`
	Off   int64  `json:"offset"`
	Area  string `json:"area_bits"`
	Perim string `json:"perimeter_bits"`
}

// sidecarDiffCase runs one query or join flavour and renders its full
// observable output as a comparable string.
type sidecarDiffCase struct {
	name string
	run  func(t *testing.T, eng *Engine, src Source) string
}

func diffSpec(pred query.Predicate, scale float64, keep bool) *query.Spec {
	kind := query.Aggregation
	if keep {
		kind = query.Containment
	}
	return &query.Spec{
		Kind:     kind,
		Ref:      query.ScaleBox(synth.Extent, scale).AsPolygon(),
		Pred:     pred,
		Dist:     geom.Haversine,
		WantArea: true, WantPerimeter: true, WantMBR: true,
		KeepMatches: keep,
	}
}

func queryCase(name string, spec *query.Spec, mode Mode) sidecarDiffCase {
	return sidecarDiffCase{name: name, run: func(t *testing.T, eng *Engine, src Source) string {
		t.Helper()
		res, err := eng.Query(context.Background(), src, spec, Options{Mode: mode, BlockSize: 8 << 10})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return renderQueryResult(res)
	}}
}

// renderStream drains a streamed query: one diffRecord line per match,
// then the summary.
func renderStream(t *testing.T, name string, res *Results) string {
	t.Helper()
	var b strings.Builder
	for res.Next() {
		f, v := res.Feature(), res.Value()
		line, err := json.Marshal(diffRecord{ID: f.ID, Off: f.Offset, Area: bits(v.Area), Perim: bits(v.Perimeter)})
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	sum, err := res.Summary()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	b.WriteString(renderQueryResult(sum))
	return b.String()
}

func streamCase(name string, spec *query.Spec, mode Mode) sidecarDiffCase {
	return sidecarDiffCase{name: name, run: func(t *testing.T, eng *Engine, src Source) string {
		t.Helper()
		pq, err := eng.Prepare(spec, Options{Mode: mode, BlockSize: 8 << 10})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return renderStream(t, name, pq.Stream(context.Background(), src))
	}}
}

// diffShardRanges is the shard axis: k raw tiles for k in {1, 2, 3, 7},
// cut mid-feature wherever total/k falls, plus a range that aligns to
// nothing (inside the GeoJSON wrapper, or inside WKT's first line).
func diffShardRanges(total int64) []ShardRange {
	out := []ShardRange{{1, 2}}
	for _, k := range []int{1, 2, 3, 7} {
		out = append(out, rawTiles(total, k)...)
	}
	return out
}

// renderShard renders one shard pass, streamed or aggregated.
func renderShard(t *testing.T, name string, pq *PreparedQuery, src Source, r ShardRange, stream bool) string {
	t.Helper()
	if stream {
		return renderStream(t, name, pq.StreamShard(context.Background(), src, r))
	}
	res, err := pq.ExecuteShard(context.Background(), src, r)
	if err != nil {
		t.Fatalf("%s %+v: %v", name, r, err)
	}
	return renderQueryResult(res)
}

// shardCase renders every range of the shard axis, one after another.
func shardCase(name string, spec *query.Spec, stream bool) sidecarDiffCase {
	return sidecarDiffCase{name: name, run: func(t *testing.T, eng *Engine, src Source) string {
		t.Helper()
		if src.DataFormat() == OSMXML {
			return "" // cannot be sharded by byte range
		}
		pq, err := eng.Prepare(spec, Options{BlockSize: 8 << 10})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var b strings.Builder
		for _, r := range diffShardRanges(int64(len(src.Bytes()))) {
			fmt.Fprintf(&b, "shard [%d,%d)\n%s", r.Start, r.End, renderShard(t, name, pq, src, r, stream))
		}
		return b.String()
	}}
}

func paritySideMask(f *geom.Feature) uint8 {
	if f.ID%2 == 0 {
		return query.SideA
	}
	return query.SideB
}

func joinCase(name string) sidecarDiffCase {
	return sidecarDiffCase{name: name, run: func(t *testing.T, eng *Engine, src Source) string {
		t.Helper()
		spec := JoinSpec{Mask: paritySideMask, CellSize: 10, BoundsSafeMask: true}
		jr, err := eng.Join(context.Background(), src, spec, Options{BlockSize: 8 << 10})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var pairs []struct{ a, b int64 }
		for _, p := range jr.Pairs {
			pairs = append(pairs, struct{ a, b int64 }{p.AOff, p.BOff})
		}
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i].a != pairs[j].a {
				return pairs[i].a < pairs[j].a
			}
			return pairs[i].b < pairs[j].b
		})
		var b strings.Builder
		fmt.Fprintf(&b, "pairs=%d candidates=%d duplicates=%d\n",
			len(jr.Pairs), jr.JoinStats.Candidates, jr.JoinStats.Duplicates)
		for _, p := range pairs {
			fmt.Fprintf(&b, "pair a=%d b=%d\n", p.a, p.b)
		}
		return b.String()
	}}
}

// orderedJoinCase streams with OrderWindow: the emission sequence
// itself is deterministic, so it is compared verbatim — the strongest
// form of the warm/cold equivalence claim.
func orderedJoinCase(name string) sidecarDiffCase {
	return sidecarDiffCase{name: name, run: func(t *testing.T, eng *Engine, src Source) string {
		t.Helper()
		spec := JoinSpec{Mask: func(*geom.Feature) uint8 { return query.SideA | query.SideB },
			CellSize: 5, OrderWindow: 16, BoundsSafeMask: true}
		stream := eng.JoinStream(context.Background(), src, spec, Options{BlockSize: 8 << 10})
		var b strings.Builder
		for stream.Next() {
			p := stream.Pair()
			line, err := json.Marshal(struct {
				AID  int64 `json:"a_id"`
				BID  int64 `json:"b_id"`
				AOff int64 `json:"a_off"`
				BOff int64 `json:"b_off"`
			}{p.AID, p.BID, p.AOff, p.BOff})
			if err != nil {
				t.Fatal(err)
			}
			b.Write(line)
			b.WriteByte('\n')
		}
		sum, err := stream.Summary()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&b, "candidates=%d duplicates=%d\n", sum.JoinStats.Candidates, sum.JoinStats.Duplicates)
		return b.String()
	}}
}

func sidecarDiffCases() []sidecarDiffCase {
	return []sidecarDiffCase{
		// Selective window: most features prune on a warm pass.
		queryCase("agg-pat-intersects", diffSpec(query.PredIntersects, 0.2, false), PAT),
		queryCase("agg-fat-intersects", diffSpec(query.PredIntersects, 0.2, false), FAT),
		queryCase("agg-within", diffSpec(query.PredWithin, 0.35, false), PAT),
		// Disjoint inverts the MBR prefilter: the warm pass may not prune
		// and must scan everything.
		queryCase("agg-disjoint", diffSpec(query.PredDisjoint, 0.2, false), PAT),
		queryCase("contain-buffered", diffSpec(query.PredIntersects, 0.25, true), PAT),
		streamCase("contain-stream-pat", diffSpec(query.PredIntersects, 0.25, false), PAT),
		streamCase("contain-stream-fat", diffSpec(query.PredIntersects, 0.25, false), FAT),
		shardCase("shards-agg-intersects", diffSpec(query.PredIntersects, 0.2, false), false),
		shardCase("shards-agg-disjoint", diffSpec(query.PredDisjoint, 0.2, false), false),
		shardCase("shards-contain-stream", diffSpec(query.PredIntersects, 0.25, false), true),
		joinCase("join-buffered"),
		orderedJoinCase("join-ordered-stream"),
	}
}

// runAllCases executes the full matrix against (eng, src) and returns
// the rendered output per case name.
func runAllCases(t *testing.T, eng *Engine, src Source) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, c := range sidecarDiffCases() {
		out[c.name] = c.run(t, eng, src)
	}
	return out
}

func compareCases(t *testing.T, scenario string, got, want map[string]string) {
	t.Helper()
	for name, w := range want {
		g := got[name]
		if g != w {
			t.Errorf("%s: case %s diverged from cold reference\ncold:\n%s\ngot:\n%s", scenario, name, w, g)
		}
	}
}

func mustOpen(t *testing.T, path string) *MappedSource {
	t.Helper()
	src, err := OpenMapped(path, AutoDetect)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	return src
}

func TestSidecarDifferential(t *testing.T) {
	for _, format := range []Format{GeoJSON, WKT, OSMXML} {
		format := format
		t.Run(format.String(), func(t *testing.T) {
			path := writeSidecarCorpus(t, format)

			coldEng := NewEngine(EngineConfig{Workers: 4})
			defer coldEng.Close()
			cold := runAllCases(t, coldEng, mustOpen(t, path))

			// First pass on a readwrite engine records the tape; later
			// cases on the same mapping already run warm.
			rwEng := NewEngine(EngineConfig{Workers: 4, Sidecar: SidecarReadWrite})
			defer rwEng.Close()
			rwSrc := mustOpen(t, path)
			compareCases(t, "readwrite first run", runAllCases(t, rwEng, rwSrc), cold)
			st := rwSrc.SidecarStats()
			if !st.Built || st.State != "active" {
				t.Fatalf("sidecar not recorded on the readwrite engine: %+v", st)
			}
			if st.WriteError != "" {
				t.Fatalf("sidecar persist failed: %s", st.WriteError)
			}
			if _, err := os.Stat(sidecar.PathFor(path)); err != nil {
				t.Fatalf("no .atgx on disk after a readwrite pass: %v", err)
			}

			// Second run over the same mapping: everything eligible is warm.
			compareCases(t, "readwrite warm run", runAllCases(t, rwEng, rwSrc), cold)
			if st := rwSrc.SidecarStats(); st.Hits == 0 {
				t.Fatalf("no warm hits on the second readwrite run: %+v", st)
			}

			// Fresh mapping on a read-only engine: served from disk.
			roEng := NewEngine(EngineConfig{Workers: 4, Sidecar: SidecarRead})
			defer roEng.Close()
			roSrc := mustOpen(t, path)
			compareCases(t, "read-only warm run", runAllCases(t, roEng, roSrc), cold)
			st = roSrc.SidecarStats()
			if st.State != "active" || st.Hits == 0 || st.Built {
				t.Fatalf("read-only engine did not serve from the on-disk sidecar: %+v", st)
			}

			// Stale scenarios: each one gets a fresh mapping (validation is
			// cached per mapping) on a read-only engine, must silently fall
			// back to a cold pass, and must never trust the sidecar.
			scPath := sidecar.PathFor(path)
			goodSidecar, err := os.ReadFile(scPath)
			if err != nil {
				t.Fatal(err)
			}

			// (a) Source mtime bumped, bytes unchanged: cheap-to-detect
			// staleness — rejected on mtime alone.
			future := time.Now().Add(2 * time.Second)
			if err := os.Chtimes(path, future, future); err != nil {
				t.Fatal(err)
			}
			staleSrc := mustOpen(t, path)
			compareCases(t, "stale mtime", runAllCases(t, roEng, staleSrc), cold)
			if st := staleSrc.SidecarStats(); st.State != "rejected" || st.Hits != 0 || st.LoadError == "" {
				t.Fatalf("mtime-stale sidecar was not rejected: %+v", st)
			}

			// (b) Bit flip in the middle of the sidecar payload.
			flipped := append([]byte(nil), goodSidecar...)
			flipped[len(flipped)/2] ^= 0x40
			if err := os.WriteFile(scPath, flipped, 0o644); err != nil {
				t.Fatal(err)
			}
			flipSrc := mustOpen(t, path)
			compareCases(t, "bit-flipped sidecar", runAllCases(t, roEng, flipSrc), cold)
			if st := flipSrc.SidecarStats(); st.State != "rejected" || st.Hits != 0 {
				t.Fatalf("bit-flipped sidecar was not rejected: %+v", st)
			}

			// (c) Truncated sidecar.
			if err := os.WriteFile(scPath, goodSidecar[:len(goodSidecar)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			truncSrc := mustOpen(t, path)
			compareCases(t, "truncated sidecar", runAllCases(t, roEng, truncSrc), cold)
			if st := truncSrc.SidecarStats(); st.State != "rejected" || st.Hits != 0 {
				t.Fatalf("truncated sidecar was not rejected: %+v", st)
			}

			// A readwrite engine facing the corrupt file rebuilds it; a
			// later read-only mapping then loads the rebuilt index.
			rebuildSrc := mustOpen(t, path)
			compareCases(t, "rebuild over corrupt", runAllCases(t, rwEng, rebuildSrc), cold)
			if st := rebuildSrc.SidecarStats(); !st.Built || st.State != "active" {
				t.Fatalf("corrupt sidecar was not rebuilt: %+v", st)
			}
			verifySrc := mustOpen(t, path)
			compareCases(t, "warm after rebuild", runAllCases(t, roEng, verifySrc), cold)
			if st := verifySrc.SidecarStats(); st.State != "active" || st.Hits == 0 {
				t.Fatalf("rebuilt sidecar did not serve a warm pass: %+v", st)
			}
		})
	}
}

// TestSidecarTapeIndependentOfWindow: the recorder is fed every
// feature's id, offset and box whether or not the window rejected it,
// so the .atgx a selective first pass writes is byte-identical to the
// one a pass that materialises everything writes — and to the one a join's
// bounds-only partition pass writes, when a join is the source's first
// pass.
func TestSidecarTapeIndependentOfWindow(t *testing.T) {
	for _, format := range []Format{GeoJSON, OSMXML, WKT} {
		modes := []Mode{PAT}
		if format == GeoJSON {
			modes = append(modes, FAT)
		}
		t.Run(format.String(), func(t *testing.T) { testTapeIndependentOfWindow(t, writeSidecarCorpus(t, format), modes) })
	}
}

func testTapeIndependentOfWindow(t *testing.T, path string, modes []Mode) {
	// record returns the tape the first pass over a fresh mapping writes.
	record := func(pass func(*Engine, *MappedSource) error) []byte {
		t.Helper()
		eng := NewEngine(EngineConfig{Workers: 4, Sidecar: SidecarReadWrite})
		defer eng.Close()
		src := mustOpen(t, path)
		if err := pass(eng, src); err != nil {
			t.Fatal(err)
		}
		if st := src.SidecarStats(); !st.Built || st.WriteError != "" {
			t.Fatalf("sidecar not recorded: %+v", st)
		}
		tape, err := os.ReadFile(sidecar.PathFor(path))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(sidecar.PathFor(path)); err != nil {
			t.Fatal(err)
		}
		return tape
	}
	queryPass := func(spec *query.Spec, mode Mode) func(*Engine, *MappedSource) error {
		return func(eng *Engine, src *MappedSource) error {
			_, err := eng.Query(context.Background(), src, spec, Options{Mode: mode, BlockSize: 8 << 10})
			return err
		}
	}
	full := diffSpec(query.PredIntersects, 0.2, false)
	full.Ref = nil // no window: every geometry is built
	want := record(queryPass(full, PAT))
	selective := diffSpec(query.PredIntersects, 0.02, false)
	for _, mode := range modes {
		if got := record(queryPass(selective, mode)); string(got) != string(want) {
			t.Errorf("%v: tape recorded by a selective pass differs from the full pass's (%d vs %d bytes)", mode, len(got), len(want))
		}
	}
	withoutPushdown(func() {
		if got := record(queryPass(selective, PAT)); string(got) != string(want) {
			t.Errorf("tape recorded without pushdown differs (%d vs %d bytes)", len(got), len(want))
		}
	})
	join := func(eng *Engine, src *MappedSource) error {
		_, err := eng.Join(context.Background(), src, JoinSpec{CellSize: 10}, Options{BlockSize: 8 << 10})
		return err
	}
	if got := record(join); string(got) != string(want) {
		t.Errorf("tape recorded by a lone join differs from a query's (%d vs %d bytes)", len(got), len(want))
	}
}

// TestSidecarShardPlans pins what the matrix above cannot see from the
// renders alone: the first shard pass on a readwrite engine is the
// recording pass (whole tape persisted, shard answer already correct),
// tape offsets are exactly the offsets AlignShard lands on (a warm and a
// cold worker must agree on every boundary), a range with no survivor
// runs no block, and shard streams concatenate into the unsharded stream
// whether the shards ran cold, warm or against an absent read-only tape.
func TestSidecarShardPlans(t *testing.T) {
	ctx := context.Background()
	opt := Options{BlockSize: 8 << 10}
	for _, format := range []Format{GeoJSON, WKT} {
		format := format
		t.Run(format.String(), func(t *testing.T) {
			path := writeSidecarCorpus(t, format)
			spec := diffSpec(query.PredIntersects, 0.25, false)

			coldEng := NewEngine(EngineConfig{Workers: 4})
			defer coldEng.Close()
			coldSrc := mustOpen(t, path)
			coldPQ, err := coldEng.Prepare(spec, opt)
			if err != nil {
				t.Fatal(err)
			}
			total := int64(len(coldSrc.Bytes()))
			whole := renderStream(t, "whole", coldPQ.Stream(ctx, coldSrc))
			matches := whole[:strings.LastIndex(whole, "count=")]
			if matches == "" {
				t.Fatal("reference stream matched nothing")
			}

			// A read-only engine with no tape to read runs cold shards and
			// writes nothing.
			roEng := NewEngine(EngineConfig{Workers: 4, Sidecar: SidecarRead})
			defer roEng.Close()
			roSrc := mustOpen(t, path)
			roPQ, err := roEng.Prepare(spec, opt)
			if err != nil {
				t.Fatal(err)
			}
			tile := rawTiles(total, 3)[1]
			want := renderShard(t, "cold", coldPQ, coldSrc, tile, true)
			if got := renderShard(t, "read-only, no tape", roPQ, roSrc, tile, true); got != want {
				t.Fatalf("read-only shard without a tape diverged:\ncold:\n%s\ngot:\n%s", want, got)
			}
			if _, err := os.Stat(sidecar.PathFor(path)); !os.IsNotExist(err) {
				t.Fatalf("read-only shard pass left a sidecar behind: %v", err)
			}

			// First pass on a readwrite engine is a shard pass: it records
			// the whole tape and answers for its range alone.
			rwEng := NewEngine(EngineConfig{Workers: 4, Sidecar: SidecarReadWrite})
			defer rwEng.Close()
			rwSrc := mustOpen(t, path)
			rwPQ, err := rwEng.Prepare(spec, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got := renderShard(t, "recording", rwPQ, rwSrc, tile, true); got != want {
				t.Fatalf("recording shard pass diverged:\ncold:\n%s\ngot:\n%s", want, got)
			}
			st := rwSrc.SidecarStats()
			if !st.Built || st.State != "active" || st.Misses != 1 || st.Hits != 0 || st.WriteError != "" {
				t.Fatalf("first shard pass did not record the tape: %+v", st)
			}
			ix, err := sidecar.Load(path)
			if err != nil {
				t.Fatalf("no loadable .atgx after the recording shard pass: %v", err)
			}
			if ix.N() != 400 {
				t.Fatalf("recording shard pass persisted %d features, want the whole tape (400)", ix.N())
			}
			prev := int64(-1)
			for i, off := range ix.Offs {
				a, err := AlignShard(rwSrc, ShardRange{prev + 1, off})
				if err != nil {
					t.Fatal(err)
				}
				if a.Start != off || a.End != off {
					t.Fatalf("tape offset %d = %d, but AlignShard lands on %d from %d and on %d from itself",
						i, off, a.Start, prev+1, a.End)
				}
				prev = off
			}
			if got := renderShard(t, "warm", rwPQ, rwSrc, tile, true); got != want {
				t.Fatalf("warm shard pass diverged:\ncold:\n%s\ngot:\n%s", want, got)
			}
			if st := rwSrc.SidecarStats(); st.Hits != 1 || st.Misses != 1 {
				t.Fatalf("warm shard pass not counted as a hit: %+v", st)
			}

			// A range whose only feature misses the window has no survivor:
			// the warm pass counts it from the tape and runs no block.
			win := rwPQ.Spec().RefBox
			pruned := -1
			for i, bx := range ix.Boxes {
				if !bx.Intersects(win) {
					pruned = i
					break
				}
			}
			if pruned < 0 {
				t.Fatal("every feature survives the window: the zero-survivor plan went untested")
			}
			one := ShardRange{ix.Offs[pruned], ix.Offs[pruned] + 1}
			res, err := rwPQ.ExecuteShard(ctx, rwSrc, one)
			if err != nil {
				t.Fatal(err)
			}
			if res.Res.Count != 0 || res.Res.Scanned != 1 || res.Stats.Blocks != 0 {
				t.Fatalf("zero-survivor shard: count=%d scanned=%d blocks=%d, want 0/1/0",
					res.Res.Count, res.Res.Scanned, res.Stats.Blocks)
			}
			if got, want := renderQueryResult(res), renderShard(t, "cold", coldPQ, coldSrc, one, false); got != want {
				t.Fatalf("zero-survivor shard diverged:\ncold:\n%s\ngot:\n%s", want, got)
			}

			// Tiling: shard streams concatenate into the unsharded stream
			// and the counts add up, cold and warm.
			for _, k := range []int{1, 2, 3, 7} {
				for _, side := range []struct {
					name string
					pq   *PreparedQuery
					src  Source
				}{{"cold", coldPQ, coldSrc}, {"warm", rwPQ, rwSrc}} {
					var cat strings.Builder
					var count, scanned int64
					for _, r := range rawTiles(total, k) {
						res := side.pq.StreamShard(ctx, side.src, r)
						out := renderStream(t, side.name, res)
						cat.WriteString(out[:strings.LastIndex(out, "count=")])
						sum, _ := res.Summary()
						count += sum.Res.Count
						scanned += sum.Res.Scanned
					}
					if cat.String() != matches {
						t.Fatalf("%s k=%d: shard streams do not concatenate into the unsharded stream", side.name, k)
					}
					if tail := fmt.Sprintf("count=%d scanned=%d ", count, scanned); !strings.Contains(whole, tail) {
						t.Fatalf("%s k=%d: shards add up to %s, unsharded summary is %s", side.name, k, tail, whole[len(matches):])
					}
				}
			}
		})
	}
}
