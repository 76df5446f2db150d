package atgis

// Differential correctness harness for the persistent sidecar index:
// every query mode and both join flavours run cold (SidecarOff), warm
// (index recorded, then served from memory and from disk) and against
// deliberately stale sidecars (bit-flipped, truncated, of an older
// format version, source mtime bumped). The rendered output — NDJSON
// record lines plus the result-bearing summary fields — must be
// byte-identical in every configuration. The shard axis runs the same
// queries over raw byte ranges (1, 2, 3 and 7 tiles cut wherever the
// arithmetic falls, plus a range inside the document wrapper): a shard
// is a restriction of the same block plan, so it must render
// identically under every sidecar state too, and its streams must
// concatenate into the unsharded one.
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
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
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
	return writeCorpus(t, format, synth.Config{Seed: 20160626, N: 400, MultiPolyFrac: 0.15, LineFrac: 0.15, MetadataBytes: 40})
}

// writeCorpus writes cfg's synthetic dataset in the given format and
// returns its path, as writeSidecarCorpus does.
func writeCorpus(t *testing.T, format Format, cfg synth.Config) string {
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
	g := synth.New(cfg)
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

// streamRecord is a diffRecord plus what else a stream hands over: the
// match's box, its geometry (geomDigest) and its properties.
type streamRecord struct {
	diffRecord
	Box   string            `json:"box"`
	Geom  string            `json:"geom"`
	Props map[string]string `json:"props,omitempty"`
}

// geomDigest renders a geometry exactly: its type, its point count and an
// FNV-1a hash of every coordinate's bit pattern in visiting order.
func geomDigest(g geom.Geometry) string {
	if g == nil {
		return "nil"
	}
	h := fnv.New64a()
	var buf [16]byte
	n := 0
	g.EachPoint(func(p geom.Point) bool {
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(p.X))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(p.Y))
		h.Write(buf[:])
		n++
		return true
	})
	return fmt.Sprintf("%d/%d/%016x", g.Type(), n, h.Sum64())
}

// sidecarDiffCase runs one query or join flavour and renders its full
// observable output as a comparable string. spec is the query's spec (nil
// for a join).
type sidecarDiffCase struct {
	name string
	spec *query.Spec
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

// coverSpec is an intersects query over the centred window of area
// fraction frac (0: a zero-area window at the centre) that reads nothing
// but the box — the spec a tape pass answers covered features of. A
// containment keeps its matches.
func coverSpec(kind query.Kind, frac float64) *query.Spec {
	win := geom.Box{}
	if frac > 0 {
		win = query.ScaleBox(synth.Extent, frac)
	}
	return &query.Spec{Kind: kind, Ref: win.AsPolygon(), Pred: query.PredIntersects,
		WantMBR: true, KeepMatches: kind == query.Containment}
}

// diffOpt is the options every case runs with, in the given mode.
func diffOpt(mode Mode) Options { return Options{Mode: mode, BlockSize: 8 << 10} }

func queryCase(name string, spec *query.Spec, opt Options) sidecarDiffCase {
	return sidecarDiffCase{name: name, spec: spec, run: func(t *testing.T, eng *Engine, src Source) string {
		t.Helper()
		res, err := eng.Query(context.Background(), src, spec, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return renderQueryResult(res)
	}}
}

// renderStream drains a streamed query: one streamRecord line per match,
// then the summary.
func renderStream(t *testing.T, name string, res *Results) string {
	t.Helper()
	var b strings.Builder
	for res.Next() {
		m, v := res.Match(), res.Value()
		f := res.Feature()
		if f.ID != m.ID || f.Offset != m.Offset {
			t.Fatalf("%s: Feature is %d@%d, Match %d@%d", name, f.ID, f.Offset, m.ID, m.Offset)
		}
		line, err := json.Marshal(streamRecord{
			diffRecord: diffRecord{ID: m.ID, Off: m.Offset, Area: bits(v.Area), Perim: bits(v.Perimeter)},
			Box:        renderBox(m.Box),
			Geom:       geomDigest(f.Geom),
			Props:      f.Properties,
		})
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

func streamCase(name string, spec *query.Spec, opt Options) sidecarDiffCase {
	return sidecarDiffCase{name: name, spec: spec, run: func(t *testing.T, eng *Engine, src Source) string {
		t.Helper()
		pq, err := eng.Prepare(spec, opt)
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
func shardCase(name string, spec *query.Spec, opt Options, stream bool) sidecarDiffCase {
	return sidecarDiffCase{name: name, spec: spec, run: func(t *testing.T, eng *Engine, src Source) string {
		t.Helper()
		if src.DataFormat() == OSMXML {
			return "" // cannot be sharded by byte range
		}
		pq, err := eng.Prepare(spec, opt)
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

// joinCases are the join cases of sidecarDiffCases.
func joinCases() []sidecarDiffCase {
	return []sidecarDiffCase{joinCase("join-buffered"), orderedJoinCase("join-ordered-stream")}
}

func sidecarDiffCases() []sidecarDiffCase {
	pat, fat := diffOpt(PAT), diffOpt(FAT)
	cases := []sidecarDiffCase{
		// Selective window: most features prune on a warm pass.
		queryCase("agg-pat-intersects", diffSpec(query.PredIntersects, 0.2, false), pat),
		queryCase("agg-fat-intersects", diffSpec(query.PredIntersects, 0.2, false), fat),
		queryCase("agg-within", diffSpec(query.PredWithin, 0.35, false), pat),
		// Disjoint inverts the MBR prefilter: the warm pass may not prune
		// and must scan everything.
		queryCase("agg-disjoint", diffSpec(query.PredDisjoint, 0.2, false), pat),
		queryCase("contain-buffered", diffSpec(query.PredIntersects, 0.25, true), pat),
		streamCase("contain-stream-pat", diffSpec(query.PredIntersects, 0.25, false), pat),
		streamCase("contain-stream-fat", diffSpec(query.PredIntersects, 0.25, false), fat),
		shardCase("shards-agg-intersects", diffSpec(query.PredIntersects, 0.2, false), pat, false),
		shardCase("shards-agg-disjoint", diffSpec(query.PredDisjoint, 0.2, false), pat, false),
		shardCase("shards-contain-stream", diffSpec(query.PredIntersects, 0.25, false), pat, true),
	}
	cases = append(cases, joinCases()...)
	// Specs a warm pass answers from the tape wherever a feature's box lies
	// inside the window, from a window nothing lies inside to one holding
	// nearly everything.
	for _, frac := range []float64{0, 0.03, 0.7, 1} {
		contain, agg := coverSpec(query.Containment, frac), coverSpec(query.Aggregation, frac)
		cases = append(cases,
			queryCase(fmt.Sprintf("cover-contain-%g", frac), contain, pat),
			streamCase(fmt.Sprintf("cover-stream-%g", frac), contain, pat),
			queryCase(fmt.Sprintf("cover-agg-mbr-%g", frac), agg, pat),
			shardCase(fmt.Sprintf("shards-cover-stream-%g", frac), contain, pat, true),
			shardCase(fmt.Sprintf("shards-cover-agg-mbr-%g", frac), agg, pat, false),
		)
	}
	// Specs it must not: a reference that is not its own MBR, an aggregate
	// of the geometry, properties on the matches.
	diamond := coverSpec(query.Containment, 0.25)
	diamond.Ref = geom.Polygon{geom.Ring{{X: 0, Y: -60}, {X: 120, Y: 0}, {X: 0, Y: 60}, {X: -120, Y: 0}, {X: 0, Y: -60}}}
	area := coverSpec(query.Containment, 0.25)
	area.WantArea = true
	props := pat
	props.PropKeys = []string{"name"}
	for _, c := range []struct {
		name string
		spec *query.Spec
		opt  Options
	}{
		{"uncovered-nonrect", diamond, pat},
		{"uncovered-area", area, pat},
		{"uncovered-props", coverSpec(query.Containment, 0.25), props},
	} {
		cases = append(cases,
			streamCase(c.name, c.spec, c.opt),
			shardCase("shards-"+c.name, c.spec, c.opt, true),
		)
	}
	return cases
}

// runAllCases executes the full matrix against (eng, src) and returns
// the rendered output per case name.
func runAllCases(t *testing.T, eng *Engine, src Source) map[string]string {
	t.Helper()
	return runCases(t, eng, src, sidecarDiffCases())
}

// runCases executes cases against (eng, src) and returns the rendered
// output per case name.
func runCases(t *testing.T, eng *Engine, src Source, cases []sidecarDiffCase) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, c := range cases {
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

			// (d) A file of the old format version: well formed,
			// checksummed and matching the source's current mtime, but of
			// a version this build does not read.
			srcInfo, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			oldVersion := append([]byte(nil), goodSidecar...)
			binary.LittleEndian.PutUint16(oldVersion[4:6], 1)
			binary.LittleEndian.PutUint64(oldVersion[16:24], uint64(srcInfo.ModTime().UnixNano()))
			binary.LittleEndian.PutUint64(oldVersion[len(oldVersion)-8:], sidecar.Hash(oldVersion[:len(oldVersion)-8]))
			if err := os.WriteFile(scPath, oldVersion, 0o644); err != nil {
				t.Fatal(err)
			}
			oldSrc := mustOpen(t, path)
			compareCases(t, "old-version sidecar", runAllCases(t, roEng, oldSrc), cold)
			if st := oldSrc.SidecarStats(); st.State != "rejected" || st.Hits != 0 || !strings.Contains(st.LoadError, "unsupported version 1") {
				t.Fatalf("old-version sidecar was not rejected by its version: %+v", st)
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
	// The sidecar corpus holds one parity pair at most: the join cases run
	// again over TestKernelDifferential's dense rendering of the generator,
	// cold, on a readwrite engine's recording and warm runs and on a
	// read-only engine, and the cold reference must join something.
	for _, format := range []Format{GeoJSON, WKT, OSMXML} {
		t.Run("dense-joins/"+format.String(), func(t *testing.T) {
			path := writeCorpus(t, format, synth.Config{Seed: 20160626, N: 400,
				MultiPolyFrac: 0.15, LineFrac: 0.15, ExtentScale: 0.01})

			coldEng := NewEngine(EngineConfig{Workers: 4})
			defer coldEng.Close()
			cold := runCases(t, coldEng, mustOpen(t, path), joinCases())
			var pairs int
			if _, err := fmt.Sscanf(cold["join-buffered"], "pairs=%d", &pairs); err != nil || pairs < 100 {
				t.Fatalf("dense cold join: %d pairs (%v), want 100 or more", pairs, err)
			}
			// The ordered stream joins every feature with itself too: count
			// the pairs of two features.
			streamed := 0
			for _, line := range strings.Split(cold["join-ordered-stream"], "\n") {
				var p struct {
					AOff int64 `json:"a_off"`
					BOff int64 `json:"b_off"`
				}
				if json.Unmarshal([]byte(line), &p) == nil && p.AOff != p.BOff {
					streamed++
				}
			}
			if streamed < 100 {
				t.Fatalf("dense cold ordered stream: %d pairs of two features, want 100 or more", streamed)
			}

			rwEng := NewEngine(EngineConfig{Workers: 4, Sidecar: SidecarReadWrite})
			defer rwEng.Close()
			rwSrc := mustOpen(t, path)
			compareCases(t, "readwrite first run", runCases(t, rwEng, rwSrc, joinCases()), cold)
			if st := rwSrc.SidecarStats(); !st.Built || st.State != "active" || st.WriteError != "" {
				t.Fatalf("sidecar not recorded on the readwrite engine: %+v", st)
			}
			compareCases(t, "readwrite warm run", runCases(t, rwEng, rwSrc, joinCases()), cold)
			if st := rwSrc.SidecarStats(); st.Hits == 0 {
				t.Fatalf("no warm hits on the second readwrite run: %+v", st)
			}

			roEng := NewEngine(EngineConfig{Workers: 4, Sidecar: SidecarRead})
			defer roEng.Close()
			roSrc := mustOpen(t, path)
			compareCases(t, "read-only warm run", runCases(t, roEng, roSrc, joinCases()), cold)
			if st := roSrc.SidecarStats(); st.State != "active" || st.Hits == 0 || st.Built {
				t.Fatalf("read-only engine did not serve from the on-disk sidecar: %+v", st)
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
	withoutPushdown := func(eng *Engine, src *MappedSource) error {
		pq, err := eng.Prepare(selective, Options{Mode: PAT, BlockSize: 8 << 10})
		if err != nil {
			return err
		}
		pq.cfg.Window, pq.cfg.BracketReject = nil, false
		_, err = pq.Execute(context.Background(), src)
		return err
	}
	if got := record(withoutPushdown); string(got) != string(want) {
		t.Errorf("tape recorded without pushdown differs (%d vs %d bytes)", len(got), len(want))
	}
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

// TestSidecarCoveredStreamParsesOnlyStraddlers: a warm stream over a
// rectangular window, consumed through Match, parses exactly the features
// whose box meets the window without lying inside it — no covered match,
// no miss, and nothing again on the consumer's side — in no more blocks
// than those features' bytes fill. A range holding only covered features
// runs no block at all.
func TestSidecarCoveredStreamParsesOnlyStraddlers(t *testing.T) {
	ctx := context.Background()
	for _, format := range []Format{GeoJSON, WKT} {
		t.Run(format.String(), func(t *testing.T) {
			eng := NewEngine(EngineConfig{Workers: 4, Sidecar: SidecarReadWrite})
			defer eng.Close()
			src := mustOpen(t, writeSidecarCorpus(t, format))
			opt := Options{BlockSize: 1 << 10}
			pq, err := eng.Prepare(coverSpec(query.Containment, 0.7), opt)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := pq.Execute(ctx, src); err != nil { // records the tape
				t.Fatal(err)
			}
			ix := src.sidecarIndex()
			if ix == nil {
				t.Fatal("no tape recorded")
			}
			win := pq.spec.RefBox
			var covered, straddling, parseBytes int64
			for i, b := range ix.Boxes {
				switch {
				case !b.Intersects(win):
				case win.ContainsBox(b):
					covered++
				default:
					straddling++
					end := int64(len(src.Bytes()))
					if i+1 < len(ix.Offs) {
						end = ix.Offs[i+1]
					}
					parseBytes += end - ix.Offs[i]
				}
			}
			if covered == 0 || straddling == 0 {
				t.Fatalf("window covers %d features and straddles %d: both must be non-zero", covered, straddling)
			}

			var evals, reparsed atomic.Int64
			eval := pq.cfg.EvalBox
			pq.cfg.EvalBox = func(f *geom.Feature, box geom.Box) any {
				evals.Add(1)
				return eval(f, box)
			}
			res := pq.Stream(ctx, src)
			reparse := res.reparse
			res.reparse = func(off int64) (geom.Geometry, error) {
				reparsed.Add(1)
				return reparse(off)
			}
			n := int64(0)
			for res.Next() {
				if m := res.Match(); m.Box.IsEmpty() {
					t.Fatalf("match %d@%d has no box", m.ID, m.Offset)
				}
				n++
			}
			sum, err := res.Summary()
			if err != nil {
				t.Fatal(err)
			}
			if n != sum.Res.Count || n < covered {
				t.Fatalf("streamed %d matches, summary %d, covered %d", n, sum.Res.Count, covered)
			}
			if got := evals.Load(); got != straddling {
				t.Errorf("parsed and evaluated %d features, want the %d straddling the window's edge", got, straddling)
			}
			if got := reparsed.Load(); got != 0 {
				t.Errorf("consuming through Match re-parsed %d features", got)
			}
			if limit := (parseBytes + 1<<10 - 1) >> 10; sum.Stats.Blocks < 1 || int64(sum.Stats.Blocks) > limit {
				t.Errorf("%d blocks for %d bytes to parse at 1 KiB blocks, want 1..%d", sum.Stats.Blocks, parseBytes, limit)
			}

			// A range holding one covered feature: answered from the tape.
			for i, b := range ix.Boxes {
				if !win.ContainsBox(b) || b.IsEmpty() {
					continue
				}
				evals.Store(0)
				res, err := pq.ExecuteShard(ctx, src, ShardRange{ix.Offs[i], ix.Offs[i] + 1})
				if err != nil {
					t.Fatal(err)
				}
				if res.Res.Count != 1 || res.Stats.Blocks != 0 || evals.Load() != 0 {
					t.Fatalf("covered-only shard: count %d, %d blocks, %d evaluations; want 1, 0, 0",
						res.Res.Count, res.Stats.Blocks, evals.Load())
				}
				break
			}
		})
	}
}

// TestSidecarPoisonedCoveredTape: a tape whose next offset after a
// covered feature was moved into that feature's bytes is caught by the
// covered feature's span check alone — the shifted entry itself misses
// the window and is never read. A stream ends with errWarmAbort after a
// true prefix of the cold matches; an aggregate reruns cold and answers
// as a cold pass does. Either way the sidecar is rejected.
func TestSidecarPoisonedCoveredTape(t *testing.T) {
	ctx := context.Background()
	for _, format := range []Format{GeoJSON, WKT} {
		t.Run(format.String(), func(t *testing.T) {
			path := writeSidecarCorpus(t, format)
			contain, agg := coverSpec(query.Containment, 0.25), coverSpec(query.Aggregation, 0.25)
			matches := func(eng *Engine, src Source) ([]query.Match, error) {
				pq, err := eng.Prepare(contain, Options{BlockSize: 1 << 10})
				if err != nil {
					t.Fatal(err)
				}
				res := pq.Stream(ctx, src)
				var out []query.Match
				for res.Next() {
					out = append(out, res.Match())
				}
				return out, res.Err()
			}
			coldEng := NewEngine(EngineConfig{Workers: 4})
			defer coldEng.Close()
			want, err := matches(coldEng, mustOpen(t, path))
			if err != nil {
				t.Fatal(err)
			}
			wantAgg, err := coldEng.Query(ctx, mustOpen(t, path), agg, Options{})
			if err != nil {
				t.Fatal(err)
			}

			rwEng := NewEngine(EngineConfig{Workers: 4, Sidecar: SidecarReadWrite})
			defer rwEng.Close()
			if _, err := rwEng.Query(ctx, mustOpen(t, path), agg, Options{}); err != nil {
				t.Fatal(err)
			}
			ix, err := sidecar.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			win := contain.Ref.Bound()
			j := ix.N() / 2 // past a few blocks, so the stream has a prefix to show
			for ; j < ix.N(); j++ {
				if prev := ix.Boxes[j-1]; win.ContainsBox(prev) && !prev.IsEmpty() && !ix.Boxes[j].Intersects(win) {
					break
				}
			}
			if j == ix.N() {
				t.Fatal("no covered feature followed by a miss to poison")
			}
			ix.Offs[j] -= (ix.Offs[j] - ix.Offs[j-1]) / 2
			if err := sidecar.Write(path, ix); err != nil {
				t.Fatal(err)
			}

			roEng := NewEngine(EngineConfig{Workers: 4, Sidecar: SidecarRead})
			defer roEng.Close()
			src := mustOpen(t, path)
			got, err := matches(roEng, src)
			if !errors.Is(err, errWarmAbort) {
				t.Fatalf("stream over the poisoned tape: err = %v, want errWarmAbort", err)
			}
			if len(got) == 0 || len(got) >= len(want) || !slices.Equal(got, want[:len(got)]) {
				t.Errorf("stream emitted %d matches, want a true prefix of the %d cold ones", len(got), len(want))
			}
			if st := src.SidecarStats(); st.State != "rejected" || st.Hits != 1 {
				t.Errorf("poisoned tape was not used once and then rejected: %+v", st)
			}

			src = mustOpen(t, path)
			gotAgg, err := roEng.Query(ctx, src, agg, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if g, w := renderQueryResult(gotAgg), renderQueryResult(wantAgg); g != w {
				t.Errorf("aggregate over the poisoned tape:\n%s\nwant\n%s", g, w)
			}
			if st := src.SidecarStats(); st.State != "rejected" || st.Hits != 1 {
				t.Errorf("poisoned tape was not used once and then rejected: %+v", st)
			}
		})
	}
}

// TestSidecarOddDocuments: tape passes over documents whose shape the
// synthetic corpus never has — a lone Feature as the root, a bare array,
// members after the features array, CRLF and structural characters in
// strings, the PAT-hostile collection, WKT with blank lines and no final
// newline — answer as cold passes do, buffered and streamed, with and
// without covered features, and never reject the tape.
func TestSidecarOddDocuments(t *testing.T) {
	ctx := context.Background()
	docs := map[string]string{
		"root.geojson": `{"type":"Feature","id":7,"geometry":{"type":"Polygon","coordinates":[[[1,1],[2,1],[2,2],[1,1]]]},"properties":{}}`,
		"bare.geojson": `[{"type":"Feature","id":1,"geometry":{"type":"Point","coordinates":[1,1]},"properties":{}} , ` +
			`{"type":"Feature","id":2,"geometry":{"type":"Point","coordinates":[50,1]},"properties":{}},` +
			`{"type":"Feature","id":3,"geometry":{"type":"Point","coordinates":[2,2]},"properties":{}}]`,
		"trailing.geojson": "{\"type\":\"FeatureCollection\",\"features\":[\r\n" +
			"{\"type\":\"Feature\",\"id\":1,\"geometry\":{\"type\":\"Point\",\"coordinates\":[1,1]},\"properties\":{\"x\":\"},{\"}}\r\n,\r\n" +
			"{\"type\":\"Feature\",\"id\":2,\"geometry\":null,\"properties\":{}}," +
			"{\"type\":\"Feature\",\"id\":3,\"geometry\":{\"type\":\"LineString\",\"coordinates\":[[1,1],[9,9]]},\"properties\":{}}\n" +
			"], \"bbox\":[0,0,1,1], \"extra\":{\"type\":\"Feature\"}}\n",
		"hostile.geojson": string(hostileCollection()),
		"crlf.wkt":        "1\tPOINT (1 1)\r\n\r\n2\tPOINT (50 1)\r\n3\tLINESTRING (1 1, 2 2)\r\n",
		"nonl.wkt":        "1\tPOINT (1 1)\n\n\n2\tPOINT (3 3)",
	}
	var specs []*query.Spec
	for _, b := range []geom.Box{{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, {MinX: 0.5, MinY: -1, MaxX: 3, MaxY: 1.5}} {
		for _, area := range []bool{false, true} {
			specs = append(specs, &query.Spec{Kind: query.Containment, Pred: query.PredIntersects,
				KeepMatches: true, WantMBR: true, WantArea: area, Ref: b.AsPolygon()})
		}
	}
	coldEng := NewEngine(EngineConfig{Workers: 2})
	defer coldEng.Close()
	warmEng := NewEngine(EngineConfig{Workers: 2, Sidecar: SidecarReadWrite})
	defer warmEng.Close()
	dir := t.TempDir()
	for name, doc := range docs {
		path := dir + "/" + name
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		coldSrc, warmSrc := mustOpen(t, path), mustOpen(t, path)
		for i, spec := range specs {
			for _, bs := range []int{16, 1 << 20} {
				opt := Options{BlockSize: bs}
				want, err := coldEng.Query(ctx, coldSrc, spec, opt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				pc, _ := coldEng.Prepare(spec, opt)
				wantStream := renderStream(t, name, pc.Stream(ctx, coldSrc))
				for round := 0; round < 2; round++ { // the first one records the tape
					got, err := warmEng.Query(ctx, warmSrc, spec, opt)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if g, w := renderQueryResult(got), renderQueryResult(want); g != w {
						t.Errorf("%s spec %d block %d: warm\n%s\ncold\n%s", name, i, bs, g, w)
					}
					pw, _ := warmEng.Prepare(spec, opt)
					if g := renderStream(t, name, pw.Stream(ctx, warmSrc)); g != wantStream {
						t.Errorf("%s spec %d block %d: warm stream\n%s\ncold\n%s", name, i, bs, g, wantStream)
					}
				}
			}
		}
		if st := warmSrc.SidecarStats(); st.State != "active" || st.Hits == 0 {
			t.Errorf("%s: tape not serving: %+v", name, st)
		}
	}
}
