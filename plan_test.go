package atgis

// Tests of the driver seam: runPlan's contract with a driver (which calls,
// in which order, with which arguments, and the one failure rule), and
// every real driver under every plan shape — the same synthetic features
// as GeoJSON, WKT and OSM XML must give the answer of that format's
// one-block sequential run wherever the blocks are cut, however many
// workers run, cold or from a tape, whole or sharded.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atgis/internal/geojson"
	"atgis/internal/geom"
	"atgis/internal/lexer"
	"atgis/internal/pipeline"
	"atgis/internal/query"
	"atgis/internal/sidecar"
	"atgis/internal/synth"
)

// fakeDriver is a driver over n bytes of nothing that logs every call
// runPlan makes on the fold goroutine and lists the blocks it is asked
// to process.
func fakeDriver(n int, log *[]string, processed *[]int) *driver[int] {
	var mu sync.Mutex // process runs on the workers
	return &driver[int]{
		input: make([]byte, n),
		cuts: func(tail []byte, stride int, yield func(int64) bool) {
			pipeline.FixedSplitter{BlockSize: stride}.Cuts(int64(len(tail)), yield)
		},
		process: func(b pipeline.Block) int {
			mu.Lock()
			defer mu.Unlock()
			*processed = append(*processed, b.Index)
			return b.Index
		},
		header: func(end int64) { *log = append(*log, fmt.Sprintf("header %d", end)) },
		skip: func(end int64) bool {
			*log = append(*log, fmt.Sprintf("skip %d", end))
			return true
		},
		add: func(b pipeline.Block, fr int) error {
			*log = append(*log, fmt.Sprintf("add %d [%d,%d)", fr, b.Start, b.End))
			return nil
		},
		finish: func(_ context.Context, parsed int64) error {
			*log = append(*log, fmt.Sprintf("finish %d", parsed))
			return nil
		},
	}
}

// TestRunPlanDriverContract runs an explicit plan through a fake driver:
// only live blocks are processed, the fold sees header, skip and add in
// block order, and finish gets the end of the last live block — not the
// plan's stop, which lies past a trailing gap.
func TestRunPlanDriverContract(t *testing.T) {
	pl := blockPlan{split: -1, stop: 100, blocks: []planBlock{
		{0, 10, blockHeader}, {10, 30, blockGap}, {30, 50, blockLive},
		{50, 70, blockGap}, {70, 90, blockLive}, {90, 100, blockGap},
	}}
	var log []string
	var processed []int
	// One worker, so that processed is in block order.
	st, _, _, err := runPlan(context.Background(), testEngine(t, 1), &pl, Options{}, fakeDriver(100, &log, &processed))
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{2, 4}; !reflect.DeepEqual(processed, want) {
		t.Errorf("processed blocks %v, want only the live ones %v", processed, want)
	}
	want := []string{"header 10", "skip 30", "add 2 [30,50)", "skip 70", "add 4 [70,90)", "skip 100", "finish 90"}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("fold calls\n got %v\nwant %v", log, want)
	}
	if st.Blocks != 6 {
		t.Errorf("blocks = %d, want 6", st.Blocks)
	}

	// A live tail is cut by the driver's scan; an empty plan runs nothing.
	log, processed = nil, nil
	tail := blockPlan{split: 40, stop: 100, blocks: []planBlock{{0, 40, blockGap}}}
	if _, _, _, err := runPlan(context.Background(), testEngine(t, 1), &tail, Options{BlockSize: 25}, fakeDriver(100, &log, &processed)); err != nil {
		t.Fatal(err)
	}
	want = []string{"skip 40", "add 1 [40,65)", "add 2 [65,90)", "add 3 [90,100)", "finish 100"}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("live tail\n got %v\nwant %v", log, want)
	}
	log = nil
	empty := blockPlan{split: -1, stop: 100}
	st, _, _, err = runPlan(context.Background(), testEngine(t, 0), &empty, Options{}, fakeDriver(100, &log, &processed))
	if err != nil || st.Blocks != 0 || len(log) != 0 {
		t.Errorf("empty plan: err %v, %d blocks, calls %v", err, st.Blocks, log)
	}
}

// TestRunPlanStopsAtFirstFailure checks the one failure rule on a fake
// driver: a failing add, a refused skip and a cancelled context each end
// the pass at that block — nothing later is folded, finish never runs —
// and surface as the block's error, errWarmAbort and ctx.Err().
func TestRunPlanStopsAtFirstFailure(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name string
		arm  func(d *driver[int], cancel context.CancelFunc)
		want error
	}{
		{"add fails", func(d *driver[int], _ context.CancelFunc) {
			add := d.add
			d.add = func(b pipeline.Block, fr int) error {
				if add(b, fr); fr == 5 {
					return boom
				}
				return nil
			}
		}, boom},
		{"skip refused", func(d *driver[int], _ context.CancelFunc) {
			d.skip = func(int64) bool { return false }
		}, errWarmAbort},
		{"cancelled", func(d *driver[int], cancel context.CancelFunc) {
			add := d.add
			d.add = func(b pipeline.Block, fr int) error {
				if fr == 5 {
					cancel()
				}
				return add(b, fr)
			}
		}, context.Canceled},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var log []string
			var processed []int
			d := fakeDriver(4096, &log, &processed)
			tc.arm(d, cancel)
			// Live blocks 0..5, a gap as block 6, then a live tail.
			pl := blockPlan{split: 448, stop: 4096}
			for off := int64(0); off < 384; off += 64 {
				pl.blocks = append(pl.blocks, planBlock{off, off + 64, blockLive})
			}
			pl.blocks = append(pl.blocks, planBlock{384, 448, blockGap})
			_, _, _, err := runPlan(ctx, testEngine(t, 4), &pl, Options{BlockSize: 64}, d)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if last := log[len(log)-1]; last != "add 5 [320,384)" {
				t.Errorf("fold went on after the failing block: %v", log)
			}
		})
	}
}

// seamFormats are the three renderings of one synthetic dataset.
var seamFormats = []Format{GeoJSON, WKT, OSMXML}

func seamSource(t *testing.T, format Format) *Dataset {
	t.Helper()
	g := synth.New(synth.Config{Seed: 14, N: 120, MultiPolyFrac: 0.15, LineFrac: 0.15, MetadataBytes: 40})
	var buf bytes.Buffer
	var err error
	switch format {
	case GeoJSON:
		err = g.WriteGeoJSON(&buf)
	case WKT:
		err = g.WriteWKT(&buf)
	case OSMXML:
		err = g.WriteOSMXML(&buf)
	}
	if err != nil {
		t.Fatal(err)
	}
	ds, err := FromBytes(buf.Bytes(), format)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// seamRec is one matched feature as a pass's sinks saw it: identity plus
// the exact bits of its per-feature values.
type seamRec struct {
	id, off     int64
	area, perim uint64
}

// seamOut is everything one pass told its sinks.
type seamOut struct {
	recs []seamRec
	res  *query.Result
	tape *sidecar.Builder // every scanned feature, for building a tape
	// missed counts the features a tape pass answered from the tape alone.
	missed int64
}

// seamPass runs pl over src on eng through the driver of its format, with
// the sink wired the way PreparedQuery.run wires it. Every block it folded
// must have been granted a worker by eng's scheduler: the harness runs on
// the dispatch path that serves requests, not beside it.
func seamPass(ctx context.Context, eng *Engine, p *PreparedQuery, src Source, mode Mode, pl *blockPlan, opt Options) (seamOut, error) {
	out := seamOut{res: query.NewResult(), tape: sidecar.NewBuilder(sidecarFormat(src.DataFormat()))}
	granted := eng.Stats().Scheduler.TotalGrantedBlocks
	st, _, _, err := runPass(ctx, eng, src, mode, pl, opt, p.cfg, func(f geojson.FeatureOut) {
		v, _ := f.Val.(query.FeatureVal)
		out.tape.Add(f.Feature.Offset, f.Feature.ID, f.Box)
		out.res.Absorb(&p.spec, &f.Feature, v)
		if v.Matched {
			out.recs = append(out.recs, seamRec{f.Feature.ID, f.Feature.Offset, math.Float64bits(v.Area), math.Float64bits(v.Perimeter)})
		}
	})
	if granted = eng.Stats().Scheduler.TotalGrantedBlocks - granted; err == nil && granted < uint64(st.Blocks) {
		err = fmt.Errorf("pass folded %d blocks but the scheduler granted %d", st.Blocks, granted)
	}
	return out, err
}

// seamTapePass is seamPass for a tape pass over the entries of r: the
// warm pass PreparedQuery.run makes of it, its misses counted scanned.
func seamTapePass(ctx context.Context, eng *Engine, p *PreparedQuery, src Source, ix *sidecar.Index, r ShardRange, opt Options) (seamOut, error) {
	out := seamOut{res: query.NewResult()}
	granted := eng.Stats().Scheduler.TotalGrantedBlocks
	tp := newTapePass(p, ix, src.Bytes(), r, func(f geom.Feature, v query.FeatureVal) {
		out.res.Absorb(&p.spec, &f, v)
		if v.Matched {
			out.recs = append(out.recs, seamRec{f.ID, f.Offset, math.Float64bits(v.Area), math.Float64bits(v.Perimeter)})
		}
	})
	st, err := tp.run(ctx, eng, opt.blockSize())
	out.res.Scanned += tp.misses
	out.missed = tp.misses
	if granted = eng.Stats().Scheduler.TotalGrantedBlocks - granted; err == nil && granted < uint64(st.Blocks) {
		err = fmt.Errorf("pass folded %d blocks but the scheduler granted %d", st.Blocks, granted)
	}
	return out, err
}

func sameSummary(a, b *query.Result) bool {
	return a.Count == b.Count && a.Scanned == b.Scanned && a.MBR == b.MBR
}

// TestDriversSplitInvariant is the matrix: four drivers × block size ×
// workers × plan shape against each format's one-block sequential run,
// then formats against each other.
func TestDriversSplitInvariant(t *testing.T) {
	spec := diffSpec(query.PredIntersects, 0.45, true)
	refs := map[string]seamOut{}
	engines := map[int]*Engine{1: testEngine(t, 1), 4: testEngine(t, 4)}
	for _, format := range seamFormats {
		src := seamSource(t, format)
		data := src.Bytes()
		whole := ShardRange{0, int64(len(data))}
		modes := []Mode{PAT}
		if format == GeoJSON {
			modes = append(modes, FAT)
		}
		for _, mode := range modes {
			name := format.String() + "/" + mode.String()
			p, err := engines[1].Prepare(spec, Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			seqPlan := coldPlan(format, mode, data, whole)
			ref, err := seamPass(context.Background(), engines[1], p, src, mode, &seqPlan, Options{BlockSize: 1 << 30})
			if err != nil {
				t.Fatalf("%s: sequential run: %v", name, err)
			}
			if ref.res.Scanned != 120 || len(ref.recs) == 0 || len(ref.recs) == 120 {
				t.Fatalf("%s: reference scanned %d, matched %d of 120", name, ref.res.Scanned, len(ref.recs))
			}
			refs[name] = ref
			check := func(t *testing.T, got seamOut, err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.recs, ref.recs) {
					t.Errorf("matched sequence differs: %d records, want %d", len(got.recs), len(ref.recs))
				}
				if !sameSummary(got.res, ref.res) {
					t.Errorf("summary %+v, want %+v", got.res, ref.res)
				}
			}
			var ix *sidecar.Index
			var pc *PreparedQuery
			var covRef seamOut
			if format != OSMXML && mode == PAT {
				if ix, err = ref.tape.Build(whole.End, 0, 0); err != nil {
					t.Fatal(err)
				}
				cover := &query.Spec{Kind: query.Containment, Ref: spec.Ref, WantMBR: true, KeepMatches: true}
				if pc, err = engines[1].Prepare(cover, Options{}); err != nil || !pc.cover {
					t.Fatalf("covering spec: %v, cover %v", err, pc != nil && pc.cover)
				}
				if covRef, err = seamPass(context.Background(), engines[1], pc, src, mode, &seqPlan, Options{BlockSize: 1 << 30}); err != nil {
					t.Fatal(err)
				}
			}
			for _, bs := range []int{64, 4 << 10, 1 << 20} {
				for _, workers := range []int{1, 4} {
					eng, opt := engines[workers], Options{Mode: mode, BlockSize: bs}
					t.Run(fmt.Sprintf("%s/block%d/w%d", name, bs, workers), func(t *testing.T) {
						pl := coldPlan(format, mode, data, whole)
						got, err := seamPass(context.Background(), eng, p, src, mode, &pl, opt)
						check(t, got, err)
						if ix == nil {
							return // FAT and OSM XML: the cold whole-source plan only
						}
						got, err = seamTapePass(context.Background(), eng, p, src, ix, whole, opt)
						check(t, got, err)
						if got.missed == 0 {
							t.Fatal("tape pass answered no feature from the tape")
						}
						// A spec the tape answers covered features of.
						cov, err := seamTapePass(context.Background(), eng, pc, src, ix, whole, opt)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(cov.recs, covRef.recs) || !sameSummary(cov.res, covRef.res) {
							t.Errorf("covering tape pass: %d records %+v, want %d %+v", len(cov.recs), cov.res, len(covRef.recs), covRef.res)
						}
						for _, k := range []int{2, 3, 7} {
							for _, planner := range []string{"cold", "tape"} {
								sum := seamOut{res: query.NewResult()}
								for _, raw := range rawTiles(whole.End, k) {
									r, err := AlignShard(src, raw)
									if err != nil {
										t.Fatal(err)
									}
									pl := coldPlan(format, mode, data, r)
									var part seamOut
									if planner == "tape" {
										part, err = seamTapePass(context.Background(), eng, p, src, ix, r, opt)
									} else {
										part, err = seamPass(context.Background(), eng, p, src, mode, &pl, opt)
									}
									if err != nil {
										t.Fatalf("k=%d %s %v: %v", k, planner, r, err)
									}
									sum.recs = append(sum.recs, part.recs...)
									sum.res.Merge(part.res)
								}
								check(t, sum, nil)
							}
						}
					})
				}
			}
		}
	}

	// Across formats: the same features, so the same counts everywhere and —
	// where the format keeps the generator's ids (the OSM XML writer numbers
	// ways and relations itself) — the same matched ids.
	ids := func(o seamOut) []int64 {
		var out []int64
		for _, r := range o.recs {
			out = append(out, r.id)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	base := refs["geojson/PAT"]
	for name, ref := range refs {
		if ref.res.Count != base.res.Count || ref.res.Scanned != base.res.Scanned {
			t.Errorf("%s: count %d scanned %d, geojson/PAT has %d and %d", name, ref.res.Count, ref.res.Scanned, base.res.Count, base.res.Scanned)
		}
		if !strings.HasPrefix(name, "osmxml") && !reflect.DeepEqual(ids(ref), ids(base)) {
			t.Errorf("%s: matched id set differs from geojson/PAT", name)
		}
	}
}

// TestEvalRunsOnWorkers: every driver evaluates a feature where it parsed
// it, in the data-parallel phase. A gauge round the prepared EvalBox must
// see a call for each feature that survived the window, and — the first
// caller waits for company — two calls in flight at once, which the fold
// goroutine alone cannot produce.
func TestEvalRunsOnWorkers(t *testing.T) {
	spec := diffSpec(query.PredIntersects, 0.45, true)
	for _, format := range seamFormats {
		modes := []Mode{PAT}
		if format == GeoJSON {
			modes = append(modes, FAT)
		}
		for _, mode := range modes {
			t.Run(format.String()+"/"+mode.String(), func(t *testing.T) {
				p, err := testEngine(t, 4).Prepare(spec, Options{Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				var calls, inFlight atomic.Int64
				overlap := make(chan struct{})
				var once sync.Once
				eval := p.cfg.EvalBox
				p.cfg.EvalBox = func(f *geom.Feature, box geom.Box) any {
					calls.Add(1)
					if inFlight.Add(1) >= 2 {
						once.Do(func() { close(overlap) })
					}
					defer inFlight.Add(-1)
					select {
					case <-overlap:
					case <-time.After(5 * time.Second):
					}
					return eval(f, box)
				}
				src := seamSource(t, format)
				pl := coldPlan(format, mode, src.Bytes(), ShardRange{0, int64(len(src.Bytes()))})
				survivors := int64(0)
				_, _, _, err = runPass(context.Background(), p.engine, src, mode, &pl, Options{Mode: mode, BlockSize: 4 << 10}, p.cfg,
					func(f geojson.FeatureOut) {
						if f.Feature.Geom != nil {
							survivors++
						}
					})
				if err != nil {
					t.Fatal(err)
				}
				if n := calls.Load(); survivors == 0 || n < survivors {
					t.Errorf("EvalBox ran %d times for %d surviving features", n, survivors)
				}
				select {
				case <-overlap:
				default:
					t.Error("EvalBox was never in flight twice at once: it runs on the fold goroutine")
				}
			})
		}
	}
}

// TestPlanSkipFailureLeavesTruePrefix runs a GeoJSON plan that lies — a
// live block ending inside a feature, followed by a gap — so a repair is
// in progress where the plan skips: the pass must stop there with
// errWarmAbort, having shown its sinks a true prefix of the real output.
func TestPlanSkipFailureLeavesTruePrefix(t *testing.T) {
	src := seamSource(t, GeoJSON)
	data := src.Bytes()
	whole := ShardRange{0, int64(len(data))}
	eng := testEngine(t, 4)
	p, err := eng.Prepare(&query.Spec{Kind: query.Containment, WantArea: true}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seqPlan := coldPlan(GeoJSON, PAT, data, whole)
	ref, err := seamPass(context.Background(), eng, p, src, PAT, &seqPlan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ref.tape.Build(whole.End, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	offs := ix.Offs
	lie := blockPlan{split: -1, stop: whole.End, blocks: []planBlock{
		{0, offs[0], blockHeader},
		{offs[0], offs[5] + 10, blockLive}, // ends ten bytes into feature 5
		{offs[5] + 10, offs[9], blockGap},
		{offs[9], whole.End, blockLive},
	}}
	got, err := seamPass(context.Background(), eng, p, src, PAT, &lie, Options{})
	if !errors.Is(err, errWarmAbort) {
		t.Fatalf("err = %v, want errWarmAbort", err)
	}
	if n := len(got.recs); n != 5 || !reflect.DeepEqual(got.recs, ref.recs[:n]) {
		t.Errorf("sinks saw %d records, want exactly the first 5 of the real output", n)
	}
}

// corrupt returns a copy of data with the first occurrence of old at or
// after from replaced by new, and the offset where that line starts.
func corrupt(t *testing.T, data []byte, from int, old, new string) ([]byte, int64) {
	t.Helper()
	i := bytes.Index(data[from:], []byte(old))
	if i < 0 {
		t.Fatalf("no %q after offset %d", old, from)
	}
	i += from
	out := append(append(append([]byte(nil), data[:i]...), new...), data[i+len(old):]...)
	return out, int64(bytes.LastIndexByte(out[:i], '\n') + 1)
}

// TestMalformedBlockEndsStream is the failure rule end to end: a source
// with one malformed element mid-file, tiny blocks, four workers. Stream
// emits only features that precede the failing block and then the parse
// error (OSM XML features leave in pass 2, so none do); Execute returns
// the same error.
func TestMalformedBlockEndsStream(t *testing.T) {
	cases := []struct {
		format   Format
		old, new string
		wantErr  string
	}{
		{WKT, "POLYGON ((", "POLYGON ((oops ", "wkt"},
		{WKT, "\n", "", "wkt: unexpected bytes after the geometry"}, // a lost newline
		{OSMXML, " lat=", " lax=", "osmxml: bad node"},
	}
	for _, tc := range cases {
		t.Run(tc.format.String(), func(t *testing.T) {
			clean := seamSource(t, tc.format).Bytes()
			data, badLine := corrupt(t, clean, len(clean)/2, tc.old, tc.new)
			src, err := FromBytes(data, tc.format)
			if err != nil {
				t.Fatal(err)
			}
			p, err := testEngine(t, 4).Prepare(&query.Spec{Kind: query.Containment}, Options{BlockSize: 64})
			if err != nil {
				t.Fatal(err)
			}
			res := p.Stream(context.Background(), src)
			n := 0
			for res.Next() {
				n++
				if off := res.Feature().Offset; off >= badLine {
					t.Fatalf("feature at %d emitted past the malformed line at %d", off, badLine)
				}
			}
			streamErr := res.Err()
			if streamErr == nil || !strings.Contains(streamErr.Error(), tc.wantErr) {
				t.Fatalf("stream error = %v, want the %q parse error", streamErr, tc.wantErr)
			}
			if tc.format == OSMXML && n != 0 {
				t.Errorf("OSM XML emitted %d features before failing in pass 1", n)
			}
			if tc.format == WKT && n == 0 {
				t.Error("WKT emitted nothing before the malformed line")
			}
			if _, err := p.Execute(context.Background(), src); err == nil || err.Error() != streamErr.Error() {
				t.Errorf("Execute error = %v, want %v", err, streamErr)
			}
		})
	}
}

// hostileCollection is a GeoJSON document hostile to FAT's speculation over
// the pushdown stack, one paragraph per way to be wrong about it: a
// feature whose "type" comes last (every token of it waits on the spec
// tape for the anchor), the feature tag inside a property string and — a
// real object — inside nested properties (the fold must throw the anchored
// fake away and reprocess), GeometryCollection members, escapes and CRLF,
// and one feature far larger than a small block.
func hostileCollection() []byte {
	var big strings.Builder
	for i := 0; i < 600; i++ {
		fmt.Fprintf(&big, "[%d.%03d,%d.5],", i%9, i, -(i % 7))
	}
	big.WriteString("[0.000,0.5]")
	feats := []string{
		`{"id":1,"geometry":{"coordinates":[[0,0],[4,0],[4,3],[0,0]],"type":"LineString"},"properties":{"name":"type last"},"type":"Feature"}`,
		`{"type":"Feature","id":2,"properties":{"name":"{\"type\":\"Feature\",\"id\":90,\"geometry\":{\"type\":\"Point\",\"coordinates\":[1,1]}}"},"geometry":{"type":"Point","coordinates":[1.25,-1.5]}}`,
		`{"type":"Feature","id":3,"properties":{"name":"nested","pad":"................................................................","inner":{"type":"Feature","id":91,"geometry":{"type":"Point","coordinates":[2,2]}},"list":[{"type":"Feature","id":92,"geometry":{"type":"LineString","coordinates":[[1,1],[2,2]]}}]},"geometry":{"type":"LineString","coordinates":[[2,2],[3.5,3.25]]}}`,
		`{"type":"Feature","id":4,"geometry":{"type":"GeometryCollection","geometries":[{"type":"Point","coordinates":[1,2]},{"type":"GeometryCollection","geometries":[{"type":"LineString","coordinates":[[0.5,0.25],[2,4]]}]},{"type":"Polygon","coordinates":[[[0,0],[1,0],[1,1],[0,0]]]}]},"properties":{"name":"members"}}`,
		"{\"type\":\"Feature\",\"id\":5,\r\n\"properties\":{\"name\":\"a\\\\\",\"k\\\"]}\":\"\\\\\\\"[{\"},\r\n\"geometry\":{\"type\":\"Polygon\",\"coordinates\":[[[0,0],\r\n[1,0],[1,1],\r\n[0,0]]]}}",
		`{"type":"Feature","id":6,"geometry":{"type":"Polygon","coordinates":[[` + big.String() + `]]},"properties":{"name":"larger than a block"}}`,
		`{"type":"Feature","id":7,"geometry":{"type":"Point","coordinates":[170.123456789012345,80.5]},"properties":{"name":"outside the window"}}`,
		`{"geometry":{"type":"MultiPolygon","coordinates":[[[[5,5],[6,5],[6,6],[5,5]]],[[[-3,-3],[-2,-3],[-2,-2],[-3,-3]]]]},"type":"Feature","id":8}`,
	}
	return []byte("{\"type\":\"FeatureCollection\",\r\n\"features\":[\n" + strings.Join(feats, ",\n") + "\n]}\n")
}

// TestFATHostileDocuments puts FAT rows into the split-invariance product
// for document-level hostile input: Engine.Query under Mode FAT at every
// block size × worker count is bit-identical to PAT and to ParseSequential
// — the one-byte stride cuts every number, ring and escape of the small
// document at every byte — and where a real nested feature tag is met out
// of context the pass must say it reprocessed. An unbalanced document ends
// all three with the same error after the same emitted prefix, and so
// do one whose features array a stray '}' closes between two features,
// one with a close too many at its end, and one cut off mid-feature.
func TestFATHostileDocuments(t *testing.T) {
	engines := map[int]*Engine{1: testEngine(t, 1), 4: testEngine(t, 4)}
	spec := &query.Spec{
		Kind: query.Containment, Pred: query.PredIntersects, Dist: geom.Haversine,
		Ref:      geom.Box{MinX: -10, MinY: -10, MaxX: 10, MaxY: 10}.AsPolygon(),
		WantArea: true, WantPerimeter: true, WantMBR: true, KeepMatches: true,
	}
	doc := hostileCollection()
	// small is doc without the one large feature.
	small := bytes.Join([][]byte{doc[:bytes.Index(doc, []byte(`{"type":"Feature","id":6`))], doc[bytes.Index(doc, []byte(`{"type":"Feature","id":7`)):]}, nil)
	unbalanced := bytes.Replace(doc, []byte(`[2,2],[3.5,3.25]]`), []byte(`[2,2],[3.5,3.25]}`), 1)
	// strayClose closes the features array with '}' between two features:
	// a PAT block starts at a feature, so the close is at its base level
	// and only the fold's sequential machine can call it an error.
	strayClose := bytes.Replace(doc, []byte(`{"type":"Feature","id":4`), []byte(`},{"type":"Feature","id":4`), 1)
	// extraClose closes one container more than the document opened: the
	// last PAT block hands an erroneous tail to the sequential machine.
	extraClose := bytes.Replace(doc, []byte("\n]}\n"), []byte("\n]}]}\n"), 1)
	// truncated stops inside feature 6's ring: the last PAT block ends
	// dirty at the end of the document, with containers open. cutHeader
	// stops before the first feature: PAT's plan is one header block.
	truncated := doc[:len(doc)*2/3]
	cutHeader := doc[:bytes.Index(doc, []byte(`{"id":1`))]

	match := func(f *geom.Feature, v query.FeatureVal) string {
		return fmt.Sprintf("id=%d off=%d area=%s perim=%s box=%s\n", f.ID, f.Offset, bits(v.Area), bits(v.Perimeter), renderBox(v.Box))
	}
	// stream is what a consumer sees of a pass: every match in order, then
	// the summary or the error.
	stream := func(eng *Engine, data []byte, opt Options) (string, *Result) {
		src, err := FromBytes(data, GeoJSON)
		if err != nil {
			t.Fatal(err)
		}
		p, err := eng.Prepare(spec, opt)
		if err != nil {
			t.Fatal(err)
		}
		res := p.Stream(context.Background(), src)
		var b strings.Builder
		for res.Next() {
			b.WriteString(match(res.Feature(), res.Value()))
		}
		sum, err := res.Summary()
		if err != nil {
			fmt.Fprintf(&b, "error: %v\n", err)
			return b.String(), nil
		}
		b.WriteString(renderQueryResult(sum))
		return b.String(), sum
	}
	// sequential is the same through ParseSequential and no engine.
	sequential := func(data []byte) string {
		p, err := engines[1].Prepare(spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		out := &Result{Res: query.NewResult()}
		err = geojson.ParseSequential(data, p.cfg, func(f geojson.FeatureOut) {
			v, _ := f.Val.(query.FeatureVal)
			out.Res.Absorb(&p.spec, &f.Feature, v)
			if v.Matched {
				b.WriteString(match(&f.Feature, v))
			}
		})
		if err != nil {
			fmt.Fprintf(&b, "error: %v\n", err)
			return b.String()
		}
		return b.String() + renderQueryResult(out)
	}

	docs := map[string][]byte{"hostile": doc, "small": small, "unbalanced": unbalanced, "strayclose": strayClose, "extraclose": extraClose,
		"truncated": truncated, "cutheader": cutHeader}
	for name, data := range docs {
		want := sequential(data)
		malformed := name != "hostile" && name != "small"
		if malformed != strings.Contains(want, "error: geojson: ") || (name != "cutheader") != strings.Contains(want, "id=1 ") {
			t.Fatalf("%s: the sequential reference is\n%s", name, want)
		}
		blocks := []int{64, 4 << 10, 1 << 20}
		if name == "small" {
			blocks = append(blocks, 1)
		}
		for _, bs := range blocks {
			for _, workers := range []int{1, 4} {
				for _, mode := range []Mode{PAT, FAT} {
					got, sum := stream(engines[workers], data, Options{Mode: mode, BlockSize: bs})
					if got != want {
						t.Errorf("%s/%v/block%d/w%d differs from ParseSequential\n got:\n%s\nwant:\n%s", name, mode, bs, workers, got, want)
					}
					// At 64 bytes a block starts inside feature 3, past its tag:
					// the nested feature objects anchor and only the fold knows
					// better.
					if name == "hostile" && mode == FAT && bs == 64 && sum != nil && sum.Reprocessed == 0 {
						t.Errorf("%s/FAT/block%d/w%d: no block reprocessed", name, bs, workers)
					}
				}
			}
		}
	}
}

// TestFATDeepNestingLinear: the FAT fold validates each block against the
// stack it lands on without copying that stack, so a Polygon whose
// coordinates nest 200 000 arrays, cut into 64-byte blocks (over 6 000 of
// them, most landing tens of thousands of frames deep), folds in time
// linear in the document: well inside 5 s under the race detector, where
// a copy of the stack per block took ≈ 9 s without it. It emits what PAT
// emits.
func TestFATDeepNestingLinear(t *testing.T) {
	const depth = 200000
	doc := `{"type":"FeatureCollection","features":[` +
		`{"type":"Feature","id":1,"geometry":{"type":"Polygon","coordinates":` +
		strings.Repeat("[", depth) + "0.5,0.5" + strings.Repeat("]", depth) + `},"properties":{}},` +
		`{"type":"Feature","id":2,"geometry":{"type":"Polygon","coordinates":[[[0,0],[1,0],[1,1],[0,1],[0,0]]]},"properties":{}}]}`
	src, err := FromBytes([]byte(doc), GeoJSON)
	if err != nil {
		t.Fatal(err)
	}
	eng := testEngine(t, 2)
	spec := &query.Spec{Kind: query.Containment, Pred: query.PredIntersects, KeepMatches: true,
		Ref: geom.Box{MinX: -10, MinY: -10, MaxX: 10, MaxY: 10}.AsPolygon()}
	run := func(mode Mode) (string, time.Duration) {
		start := time.Now()
		res, err := eng.Query(context.Background(), src, spec, Options{Mode: mode, BlockSize: 64})
		took := time.Since(start)
		if err != nil {
			return "error: " + err.Error(), took
		}
		return renderQueryResult(res), took
	}
	want, _ := run(PAT)
	if !strings.Contains(want, "match id=2 ") {
		t.Fatalf("PAT does not match the square after the deep feature:\n%s", want)
	}
	got, took := run(FAT)
	if got != want {
		t.Errorf("FAT differs from PAT\nfat:\n%s\npat:\n%s", got, want)
	}
	if took > 5*time.Second {
		t.Errorf("FAT at 64-byte blocks took %v, want under 5s", took)
	}
}

// TestFATExtractsEachBlockOnce: the engine's FAT pass knows the lexer state
// at every block start — the splitter composes it — so each block takes one
// machine run, whatever state it starts in, and no block is reprocessed for
// want of the right variant.
func TestFATExtractsEachBlockOnce(t *testing.T) {
	src := seamSource(t, GeoJSON)
	data := src.Bytes()
	for _, bs := range []int{1, 7, 64, 4 << 10} {
		for _, workers := range []int{1, 4} {
			var mu sync.Mutex
			runs := map[int]int{}
			inString := 0
			n := 0
			d := fatDriver(data, &geojson.Config{}, func(geojson.FeatureOut) { n++ })
			process := d.process
			d.process = func(b pipeline.Block) geojson.BlockResult {
				r := process(b)
				mu.Lock()
				defer mu.Unlock()
				runs[b.Index] += len(r.Variants)
				if r.Variants[0].LexStarts()[0] != lexer.JSONDefault {
					inString++
				}
				return r
			}
			pl := coldPlan(GeoJSON, FAT, data, ShardRange{0, int64(len(data))})
			st, _, reprocessed, err := runPlan(context.Background(), testEngine(t, workers), &pl, Options{BlockSize: bs}, d)
			if err != nil {
				t.Fatal(err)
			}
			if n != 120 || reprocessed != 0 {
				t.Errorf("block %d, %d workers: %d features, %d blocks reprocessed", bs, workers, n, reprocessed)
			}
			if len(runs) != st.Blocks || st.Blocks < len(data)/bs {
				t.Errorf("block %d, %d workers: %d blocks processed, %d folded", bs, workers, len(runs), st.Blocks)
			}
			for b, r := range runs {
				if r != 1 {
					t.Fatalf("block %d, %d workers: block %d took %d machine runs", bs, workers, b, r)
				}
			}
			if bs <= 64 && inString == 0 {
				t.Errorf("block %d: no block started inside a string", bs)
			}
		}
	}
}
