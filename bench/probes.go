package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"atgis"
	"atgis/internal/admission"
	"atgis/internal/cluster"
	"atgis/internal/geojson"
	"atgis/internal/geom"
	"atgis/internal/geom/kernel"
	"atgis/internal/join"
	"atgis/internal/lexer"
	"atgis/internal/numparse"
	"atgis/internal/osmxml"
	"atgis/internal/partition"
	"atgis/internal/query"
	"atgis/internal/sidecar"
	"atgis/internal/wkt"
)

// The probes time calls into one layer's exported functions, from
// outside, on the scan and join inputs. The GeoJSON rungs run on one
// goroutine over the same file, so each layer's cost is the difference
// between neighbouring rungs: lex, + parse and extract, + filter and
// refine, + block cut and fold, + pool and scheduler.

const (
	probeReps  = 5       // passes per probe in a full-length run; the median is reported
	probeBlock = 1 << 20 // the product's default block size
)

// probe is one timed call. run measures once and reports through put,
// which may be given several metrics; the probes of a round run one
// after another so host drift hits all of them equally.
type probe struct {
	name string
	run  func(put func(metric string, v float64)) error
}

// probeInputs is what the probes share.
type probeInputs struct {
	scan, joined           *dataset
	scanWant, wide, aggWin windowWant
	windows                []geom.Box
	joinWant               *joinWant
}

func prepareProbes(e *env) error {
	p := &probeInputs{}
	var err error
	if p.scan, err = e.dataset("scan", scanFeatures, atgis.GeoJSON, atgis.WKT, atgis.OSMXML); err != nil {
		return err
	}
	if p.joined, err = e.dataset("join", joinFeatures, atgis.GeoJSON); err != nil {
		return err
	}
	p.scanWant = p.scan.want(centredBox(fracScan))
	p.wide = p.scan.want(centredBox(fracWide))
	p.aggWin = p.scan.want(centredBox(fracAgg))
	p.windows = randomBoxes(e.cfg.seed, windowPool, fracSelective)
	if p.joinWant, err = e.joinOracle(p.joined); err != nil {
		return err
	}
	e.probes = p
	return nil
}

// sinceMS is the time since start in ms.
func sinceMS(start time.Time) float64 { return ms(time.Since(start)) }

func runProbes(e *env, tr *tracer, values map[string]float64) error {
	p := e.probes
	srcs := make(map[atgis.Format]*atgis.MappedSource)
	for f, path := range p.scan.path {
		src, err := atgis.OpenMapped(path, f)
		if err != nil {
			return err
		}
		defer src.Close()
		srcs[f] = src
	}
	joined, err := atgis.OpenMapped(p.joined.path[atgis.GeoJSON], atgis.GeoJSON)
	if err != nil {
		return err
	}
	defer joined.Close()
	one := atgis.NewEngine(atgis.EngineConfig{Workers: 1})
	defer one.Close()
	all := atgis.NewEngine(atgis.EngineConfig{Workers: e.nproc})
	defer all.Close()

	var probes []probe
	probes = append(probes, ladderProbes(p, srcs, one, all)...)
	probes = append(probes, kernelProbes(e.cfg.seed, p)...)
	probes = append(probes, joinProbes(e, p, joined, all)...)
	sc, err := sidecarProbes(e, p)
	if err != nil {
		return err
	}
	probes = append(probes, sc...)
	sv, stop, err := servedProbes(e.nproc, p)
	if err != nil {
		return err
	}
	defer stop()
	probes = append(probes, sv...)

	samples := make(map[string][]float64)
	group, endGroup := tr.open("probes", rootSpan)
	// A run given less time than the benchmark's own gets fewer passes.
	reps := max(1, min(probeReps, int(e.cfg.seconds/3)))
	for rep := 0; rep < reps; rep++ {
		for _, pb := range probes {
			end := tr.begin(pb.name, group)
			err := pb.run(func(metric string, v float64) { samples[metric] = append(samples[metric], v) })
			end()
			e.tally.count(pb.name, err)
		}
	}
	endGroup()
	for metric, s := range samples {
		values[metric] = median(s)
	}
	size := p.scan.size[atgis.GeoJSON]
	values["pipeline.exec_1c_mb_s"] = mbPerS(size, values["pipeline.exec_1c_ms"])
	values["pipeline.agg_1c_mb_s"] = mbPerS(size, values["pipeline.agg_1c_ms"])
	values["pipeline.speedup"] = values["pipeline.exec_1c_ms"] / values["pipeline.exec_nc_ms"]
	values["sidecar.build_overhead_ratio"] = values["sidecar.first_pass_ms"] / values["pipeline.exec_nc_ms"]
	return nil
}

// ladderProbes are the per-format parsing rungs and the pipeline on top
// of them, all over the scan files with cold_scan's window.
func ladderProbes(p *probeInputs, srcs map[atgis.Format]*atgis.MappedSource, one, all *atgis.Engine) []probe {
	gj := srcs[atgis.GeoJSON].Bytes()
	wk := srcs[atgis.WKT].Bytes()
	osm := srcs[atgis.OSMXML].Bytes()
	size := int64(len(gj))
	spec := containmentSpec(p.scanWant.box)
	spec.Normalize()
	evalCfg := &geojson.Config{Eval: func(f *geom.Feature) any { return query.Apply(spec, f) }}
	// countMatched is the cheapest sink that still proves the rung did
	// its work: the matched count must be the oracle's.
	countMatched := func(n *int64) func(geojson.FeatureOut) {
		return func(f geojson.FeatureOut) {
			if v, _ := f.Val.(query.FeatureVal); v.Matched {
				*n++
			}
		}
	}
	wantMatched := func(got int64) error {
		if got != p.scanWant.matched {
			return fmt.Errorf("matched %d, want %d", got, p.scanWant.matched)
		}
		return nil
	}
	cuts := geojson.FindFeatureBoundaries(gj, probeBlock)
	literals := coordinateLiterals(p.scan, 1<<16)
	feats := p.scan.feats
	wideSpec := containmentSpec(p.wide.box)
	wideSpec.Normalize()

	// timed prepares and runs one query over the GeoJSON file.
	timed := func(eng *atgis.Engine, s *query.Spec) (*atgis.Result, float64, error) {
		start := time.Now()
		res, err := execute(eng, srcs[atgis.GeoJSON], s, atgis.Options{})
		return res, sinceMS(start), err
	}
	checkScan := func(res *atgis.Result) error { return p.scanWant.checkMatches(res, p.scan.n, true) }

	return []probe{
		{"lexer.ScanJSON", func(put func(string, float64)) error {
			start := time.Now()
			lexer.ScanJSON(lexer.JSONDefault, gj, 0, func(lexer.Token) {})
			put("lexer.json_scan_mb_s", mbPerS(size, sinceMS(start)))
			return nil
		}},
		{"lexer.Speculator.Lex", func(put func(string, float64)) error {
			s := lexer.AcquireSpeculator()
			defer lexer.ReleaseSpeculator(s)
			start := time.Now()
			for off := 0; off < len(gj); off += probeBlock {
				s.Lex(gj[off:min(off+probeBlock, len(gj))], int64(off))
			}
			put("lexer.json_spec_mb_s", mbPerS(size, sinceMS(start)))
			return nil
		}},
		{"lexer.ScanXML", func(put func(string, float64)) error {
			start := time.Now()
			lexer.ScanXML(lexer.XMLText, osm, 0, func(lexer.Token) {})
			put("lexer.xml_scan_mb_s", mbPerS(int64(len(osm)), sinceMS(start)))
			return nil
		}},
		{"numparse.Float", func(put func(string, float64)) error {
			start := time.Now()
			for _, lit := range literals {
				if _, ok := numparse.Float(lit); !ok {
					return fmt.Errorf("literal %q did not parse", lit)
				}
			}
			put("numparse.float_ns", sinceMS(start)*1e6/float64(len(literals)))
			return nil
		}},
		{"geojson.FindFeatureBoundariesStream", func(put func(string, float64)) error {
			start := time.Now()
			geojson.FindFeatureBoundariesStream(gj, probeBlock, func(int64) bool { return true })
			put("geojson.boundaries_mb_s", mbPerS(size, sinceMS(start)))
			return nil
		}},
		{"geojson.ParseSequential", func(put func(string, float64)) error {
			n := 0
			start := time.Now()
			err := geojson.ParseSequential(gj, &geojson.Config{}, func(geojson.FeatureOut) { n++ })
			put("geojson.parse_seq_mb_s", mbPerS(size, sinceMS(start)))
			if err == nil && n != p.scan.n {
				err = fmt.Errorf("parsed %d features, want %d", n, p.scan.n)
			}
			return err
		}},
		{"geojson.ParseSequential+Eval", func(put func(string, float64)) error {
			var matched int64
			start := time.Now()
			err := geojson.ParseSequential(gj, evalCfg, countMatched(&matched))
			put("geojson.parse_eval_mb_s", mbPerS(size, sinceMS(start)))
			if err != nil {
				return err
			}
			return wantMatched(matched)
		}},
		{"geojson.ProcessBlockPAT+PATFold", func(put func(string, float64)) error {
			var matched int64
			start := time.Now()
			fold := geojson.NewPATFold(gj, evalCfg, countMatched(&matched))
			prev := int64(0)
			for i, cut := range append(cuts, size) {
				if i == 0 {
					fold.Header(cut)
				} else {
					fold.Add(geojson.ProcessBlockPAT(gj, prev, cut, evalCfg))
				}
				prev = cut
			}
			err := fold.Finish(size)
			put("geojson.pat_blocks_mb_s", mbPerS(size, sinceMS(start)))
			put("geojson.pat_repair_ratio", float64(fold.Repaired)/float64(len(cuts)+1))
			if err != nil {
				return err
			}
			return wantMatched(matched)
		}},
		{"geojson.ProcessBlockFAT+Fold", func(put func(string, float64)) error {
			var matched int64
			blocks := 0
			start := time.Now()
			fold := geojson.NewFold(gj, evalCfg, countMatched(&matched))
			for off := int64(0); off < size; off += probeBlock {
				fold.Add(geojson.ProcessBlockFAT(gj, off, min(off+probeBlock, size), evalCfg))
				blocks++
			}
			err := fold.Finish()
			put("geojson.fat_blocks_mb_s", mbPerS(size, sinceMS(start)))
			put("geojson.fat_reprocess_ratio", float64(fold.Reprocessed)/float64(blocks))
			if err != nil {
				return err
			}
			return wantMatched(matched)
		}},
		{"wkt.EachLine+ParseLine", func(put func(string, float64)) error {
			n := 0
			start := time.Now()
			err := wkt.EachLine(wk, 0, int64(len(wk)), func(line []byte, off int64) error {
				_, err := wkt.ParseLine(line, off)
				n++
				return err
			})
			put("wkt.parse_mb_s", mbPerS(int64(len(wk)), sinceMS(start)))
			if err == nil && n != p.scan.n {
				err = fmt.Errorf("parsed %d lines, want %d", n, p.scan.n)
			}
			return err
		}},
		{"osmxml.ParseBlock", func(put func(string, float64)) error {
			start := time.Now()
			nodes := osmxml.NewNodeTable()
			elements := 0
			h := &osmxml.Handler{OnNode: nodes.Put,
				OnWay:      func(*osmxml.Way) { elements++ },
				OnRelation: func(*osmxml.Relation) { elements++ }}
			prev := int64(0)
			for _, cut := range append(osmxml.SplitElements(osm, probeBlock), int64(len(osm))) {
				if err := osmxml.ParseBlock(osm, prev, cut, h); err != nil {
					return err
				}
				prev = cut
			}
			put("osmxml.parse_mb_s", mbPerS(int64(len(osm)), sinceMS(start)))
			if elements < p.scan.n {
				return fmt.Errorf("parsed %d ways and relations, want at least %d", elements, p.scan.n)
			}
			return nil
		}},
		{"query.Apply", func(put func(string, float64)) error {
			var matched int64
			start := time.Now()
			for i := range feats {
				if query.Apply(wideSpec, &feats[i]).Matched {
					matched++
				}
			}
			put("query.apply_ns_per_feature", sinceMS(start)*1e6/float64(len(feats)))
			if matched != p.wide.matched {
				return fmt.Errorf("matched %d, want %d", matched, p.wide.matched)
			}
			return nil
		}},
		// One worker against all of them, back to back: their ratio is
		// the speed-up, and the single-worker pass less the PAT block
		// rung is what pool, scheduler and fold cost.
		{"pipeline.Execute/1", func(put func(string, float64)) error {
			res, d, err := timed(one, spec)
			if err != nil {
				return err
			}
			put("pipeline.exec_1c_ms", d)
			return checkScan(res)
		}},
		{"pipeline.Execute/n", func(put func(string, float64)) error {
			res, d, err := timed(all, spec)
			if err != nil {
				return err
			}
			st := res.Stats
			put("pipeline.exec_nc_ms", d)
			put("pipeline.split_ms", ms(st.SplitTime))
			put("pipeline.process_ms", ms(st.ProcessTime))
			put("pipeline.merge_ms", ms(st.MergeTime))
			put("pipeline.blocks", float64(st.Blocks))
			put("pipeline.alloc_kb_per_mb", float64(st.AllocBytes)/1024/(float64(st.Bytes)/(1<<20)))
			put("pipeline.gc_cycles_per_pass", float64(st.GCCycles))
			return checkScan(res)
		}},
		{"pipeline.Execute/1/aggregation", func(put func(string, float64)) error {
			res, d, err := timed(one, aggregationSpec(p.aggWin.box))
			if err != nil {
				return err
			}
			put("pipeline.agg_1c_ms", d)
			if res.Res.Count != p.aggWin.matched {
				return fmt.Errorf("aggregated %d features, want %d", res.Res.Count, p.aggWin.matched)
			}
			return nil
		}},
		{"pipeline.Stream", func(put func(string, float64)) error {
			pq, err := all.Prepare(wideSpec, atgis.Options{})
			if err != nil {
				return err
			}
			start := time.Now()
			res := pq.Stream(context.Background(), srcs[atgis.GeoJSON])
			defer res.Close()
			var n int64
			ids := uint64(fnvOffset)
			for res.Next() {
				n++
				ids = fnvID(ids, res.Feature().ID)
			}
			_, err = res.Summary()
			put("pipeline.stream_mb_s", mbPerS(size, sinceMS(start)))
			if err != nil {
				return err
			}
			if n != p.wide.matched || ids != p.wide.ids {
				return fmt.Errorf("streamed %d features (digest %x), want %d (digest %x)", n, ids, p.wide.matched, p.wide.ids)
			}
			return nil
		}},
	}
}

// coordinateLiterals renders the first n coordinates of d exactly as
// the format writers do (shortest round-trip form), which is what the
// files hold.
func coordinateLiterals(d *dataset, n int) [][]byte {
	var out [][]byte
	for i := range d.feats {
		d.feats[i].Geom.EachPoint(func(pt geom.Point) bool {
			out = append(out, strconv.AppendFloat(nil, pt.X, 'g', -1, 64), strconv.AppendFloat(nil, pt.Y, 'g', -1, 64))
			return len(out) < n
		})
		if len(out) >= n {
			break
		}
	}
	return out
}

// kernelProbes time the refinement kernels against their scalar
// counterparts: 4096 points against a 64-vertex ring, and one query box
// against the scan file's bounding boxes.
func kernelProbes(seed int64, p *probeInputs) []probe {
	const points, vertices, rounds = 4096, 64, 20
	ring := make(geom.Ring, 0, vertices+1)
	for i := 0; i < vertices; i++ {
		a := 2 * math.Pi * float64(i) / vertices
		ring = append(ring, geom.Point{X: math.Cos(a), Y: math.Sin(a)})
	}
	poly := geom.Polygon{append(ring, ring[0])}
	rng := rand.New(rand.NewSource(seed))
	px, py := make([]float64, points), make([]float64, points)
	for i := range px {
		px[i], py[i] = rng.Float64()*3-1.5, rng.Float64()*3-1.5
	}
	var slab kernel.PolySlab
	slab.SetPolygon(poly)
	var out kernel.LocateOut
	var boxes kernel.BoxSlab
	for _, b := range p.scan.bounds {
		boxes.Append(b)
	}
	var hits kernel.Bitset
	inside := -1 // the scalar count, which the kernel must reproduce

	return []probe{
		{"geom.LocatePointInPolygon", func(put func(string, float64)) error {
			n := 0
			start := time.Now()
			for r := 0; r < rounds; r++ {
				n = 0
				for i := range px {
					if geom.LocatePointInPolygon(geom.Point{X: px[i], Y: py[i]}, poly) == geom.Inside {
						n++
					}
				}
			}
			put("kernel.locate_scalar_mpts_s", points*rounds/1e6/(sinceMS(start)/1e3))
			inside = n
			return nil
		}},
		{"kernel.LocateBatch", func(put func(string, float64)) error {
			start := time.Now()
			for r := 0; r < rounds; r++ {
				kernel.LocateBatch(&slab, px, py, &out)
			}
			put("kernel.locate_mpts_s", points*rounds/1e6/(sinceMS(start)/1e3))
			n := 0
			for i := range px {
				if out.Location(i) == geom.Inside {
					n++
				}
			}
			if n != inside {
				return fmt.Errorf("kernel finds %d points inside, the scalar locate %d", n, inside)
			}
			return nil
		}},
		{"kernel.BoxFilterBatch", func(put func(string, float64)) error {
			start := time.Now()
			for r := 0; r < rounds; r++ {
				kernel.BoxFilterBatch(p.wide.box, &boxes, &hits)
			}
			put("kernel.boxfilter_mboxes_s", float64(boxes.Len())*rounds/1e6/(sinceMS(start)/1e3))
			n, want := 0, 0
			hits.EachSet(func(int) { n++ })
			for _, b := range p.scan.bounds {
				if b.Intersects(p.wide.box) {
					want++
				}
			}
			if n != want {
				return fmt.Errorf("kernel keeps %d boxes, Box.Intersects %d", n, want)
			}
			return nil
		}},
	}
}

// joinProbes split the join of join_cells into its phases.
func joinProbes(e *env, p *probeInputs, src *atgis.MappedSource, eng *atgis.Engine) []probe {
	data := src.Bytes()
	grid := partition.NewGrid(geom.Box{MinX: -180, MinY: -90, MaxX: 180, MaxY: 90}, 1)
	var entries []partition.Entry
	sink := query.NewPartitionSink(grid, partition.ArrayStore, parityMask)
	parseErr := geojson.ParseSequential(data, &geojson.Config{}, func(f geojson.FeatureOut) {
		entries = append(entries, partition.Entry{Box: f.Feature.Geom.Bound(), Off: f.Feature.Offset, ID: f.Feature.ID})
		sink.Consume(&f.Feature)
	})
	reparse := func(off int64) (geom.Geometry, error) { return geojson.ReparseFeature(data, off) }

	return []probe{
		{"partition.Set.Insert", func(put func(string, float64)) error {
			if parseErr != nil {
				return parseErr
			}
			set := partition.NewSet(grid, partition.ArrayStore)
			start := time.Now()
			for _, en := range entries {
				set.Insert(en)
			}
			put("partition.insert_mentries_s", float64(len(entries))/1e6/(sinceMS(start)/1e3))
			return nil
		}},
		{"atgis.Engine.Join", func(put func(string, float64)) error {
			start := time.Now()
			jr, err := eng.Join(context.Background(), src, paritySpec(), atgis.Options{})
			total := sinceMS(start)
			if err != nil {
				return err
			}
			part := ms(jr.PartitionStats.WallTime)
			st := jr.JoinStats
			put("join.partition_ms", part)
			put("join.sweep_ms", total-part)
			put("join.candidates", float64(st.Candidates))
			put("join.refine_ratio", ratio(st.Refined, st.Candidates))
			put("join.dup_ratio", ratio(st.Duplicates, st.Refined))
			put("join.reparse_cache_hit_ratio", ratio(st.CacheHits, st.CacheHits+st.Reparses))
			var got pairDigest
			for _, pr := range jr.Pairs {
				got.add(pr.AID, pr.BID)
			}
			return p.joinWant.check(got)
		}},
		{"join.RunStream", func(put func(string, float64)) error {
			if parseErr != nil {
				return parseErr
			}
			var mu sync.Mutex
			var got pairDigest
			start := time.Now()
			_, err := join.RunStream(sink.Sets[0], sink.Sets[1], join.Config{
				Predicate: geom.Intersects, ReparseA: reparse, ReparseB: reparse,
				Workers: e.nproc, KernelRefine: true,
			}, func(pr join.Pair) {
				mu.Lock()
				got.add(pr.AID, pr.BID)
				mu.Unlock()
			})
			put("join.sweep_direct_ms", sinceMS(start))
			if err != nil {
				return err
			}
			return p.joinWant.check(got)
		}},
		{"atgis.Engine.JoinStream/first", func(put func(string, float64)) error {
			in := joinCellsInst{w: &joinCells{want: p.joinWant}, eng: eng, src: src}
			d, err := in.firstPair()
			put("join.stream_first_pair_ms", ms(d))
			return err
		}},
		{"admission.Gate.Acquire", func(put func(string, float64)) error {
			const n = 20000
			gate := admission.New(admission.Config{MaxInFlight: serveMaxInFlight, MaxQueued: serveTenantQueue})
			ctx := context.Background()
			start := time.Now()
			for i := 0; i < n; i++ {
				release, err := gate.Acquire(ctx, "probe")
				if err != nil {
					return err
				}
				release()
			}
			put("admission.acquire_ns", sinceMS(start)*1e6/n)
			return nil
		}},
	}
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// sidecarProbes time the index's write side (first pass, encode, write)
// and its read side (load, prune) on the scan file.
func sidecarProbes(e *env, p *probeInputs) ([]probe, error) {
	path := p.scan.path[atgis.GeoJSON]
	// firstPass deletes the sidecar and runs the pass that rebuilds it,
	// on a fresh engine and mapping, leaving a valid .atgx behind.
	w := &warmWindow{scan: p.scan, windows: []windowWant{p.scanWant}}
	firstPass := func() (time.Duration, error) {
		in := &warmWindowInst{w: w, eng: atgis.NewEngine(atgis.EngineConfig{Workers: e.nproc, Sidecar: atgis.SidecarReadWrite})}
		defer in.close()
		return in.rebuild()
	}
	if _, err := firstPass(); err != nil {
		return nil, err
	}
	srcKB := float64(p.scan.size[atgis.GeoJSON]) / 1024
	keep := make([]bool, p.scan.n)

	return []probe{
		{"sidecar first pass", func(put func(string, float64)) error {
			d, err := firstPass()
			put("sidecar.first_pass_ms", ms(d))
			return err
		}},
		{"sidecar.Load+Encode+Write", func(put func(string, float64)) error {
			start := time.Now()
			ix, err := sidecar.Load(path)
			put("sidecar.load_ms", sinceMS(start))
			if err != nil {
				return err
			}
			if ix.N() != p.scan.n {
				return fmt.Errorf("index holds %d features, want %d", ix.N(), p.scan.n)
			}
			start = time.Now()
			enc := ix.Encode()
			put("sidecar.encode_ms", sinceMS(start))
			put("sidecar.bytes_per_src_kb", float64(len(enc))/srcKB)
			start = time.Now()
			err = sidecar.Write(path, ix)
			put("sidecar.write_ms", sinceMS(start))
			return err
		}},
		{"sidecar.Index.Prune", func(put func(string, float64)) error {
			ix, err := sidecar.Load(path)
			if err != nil {
				return err
			}
			kept, want := 0, 0
			start := time.Now()
			for _, win := range p.windows {
				ix.Prune(win, keep)
				for _, k := range keep {
					if k {
						kept++
					}
				}
			}
			total := float64(len(p.windows)) * float64(len(keep))
			put("sidecar.prune_ns_per_feature", sinceMS(start)*1e6/total)
			put("sidecar.keep_ratio", float64(kept)/total)
			for _, win := range p.windows {
				for _, b := range p.scan.bounds {
					if b.Intersects(win) {
						want++
					}
				}
			}
			if kept != want {
				return fmt.Errorf("prune keeps %d features over the windows, bounding boxes say %d", kept, want)
			}
			return nil
		}},
	}, nil
}

// servedProbes time one request at each depth of the served stack:
// through the handler into memory, over a loopback socket, and through
// a coordinator against its two shards asked directly.
func servedProbes(nproc int, p *probeInputs) (probes []probe, stop func(), err error) {
	files := map[string]string{"scan": p.scan.path[atgis.GeoJSON]}
	s, err := startServed(atgis.EngineConfig{
		Workers: nproc, BlockSize: serveBlockSize,
		MaxInFlight: serveMaxInFlight, TenantQueue: serveTenantQueue,
		Sidecar: atgis.SidecarReadWrite,
	}, files)
	if err != nil {
		return nil, nil, err
	}
	c, err := startCluster(files)
	if err != nil {
		s.stop()
		return nil, nil, err
	}
	direct := newClient(s.node.url, "")
	front := newClient(c.node.url, "")
	var shardClients []*client
	for _, u := range c.workerURLs() {
		shardClients = append(shardClients, newClient(u, ""))
	}
	stop = func() {
		direct.close()
		front.close()
		for _, sc := range shardClients {
			sc.close()
		}
		c.stop()
		s.stop()
	}
	selective := p.scan.want(p.windows[0])
	// Warm both stacks: the first pass over a file records its sidecar.
	if err := direct.containment("scan", selective, false, nil, rootSpan); err != nil {
		stop()
		return nil, nil, err
	}
	if err := front.containment("scan", selective, false, nil, rootSpan); err != nil {
		stop()
		return nil, nil, err
	}

	handler := s.srv.Handler()
	// serve runs one request through the handler into memory.
	serve := func(body []byte, gz bool) (*httptest.ResponseRecorder, float64) {
		req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
		if gz {
			req.Header.Set("Accept-Encoding", "gzip")
		}
		rec := httptest.NewRecorder()
		start := time.Now()
		handler.ServeHTTP(rec, req)
		return rec, sinceMS(start)
	}
	selBody := queryBody("scan", "containment", selective.box)
	wideBody := queryBody("scan", "containment", p.wide.box)
	var captured []byte // a plain wide response, for the decode probe
	shards := cluster.PlanBytes(p.scan.size[atgis.GeoJSON], len(shardClients))

	probes = []probe{
		// Handler and loopback back to back, so that their difference is
		// taken within one moment of the host.
		{"server.Handler.ServeHTTP+loopback", func(put func(string, float64)) error {
			rec, d := serve(selBody, false)
			put("server.handler_ms", d)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("HTTP %d", rec.Code)
			}
			start := time.Now()
			err := direct.containment("scan", selective, false, nil, rootSpan)
			put("server.socket_ms", sinceMS(start)-d)
			return err
		}},
		{"server.Handler.ServeHTTP/wide", func(put func(string, float64)) error {
			rec, d := serve(wideBody, false)
			captured = rec.Body.Bytes()
			put("server.ndjson_mb_s", mbPerS(int64(len(captured)), d))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("HTTP %d", rec.Code)
			}
			return nil
		}},
		{"server.Handler.ServeHTTP/wide/gzip", func(put func(string, float64)) error {
			rec, d := serve(wideBody, true)
			// Plain bytes carried per second, so the two encodings compare.
			put("server.gzip_mb_s", mbPerS(int64(len(captured)), d))
			if rec.Code != http.StatusOK || rec.Header().Get("Content-Encoding") != "gzip" {
				return fmt.Errorf("HTTP %d, encoding %q", rec.Code, rec.Header().Get("Content-Encoding"))
			}
			return nil
		}},
		{"cluster.StreamDecoder.Next", func(put func(string, float64)) error {
			dec := cluster.NewStreamDecoder(bytes.NewReader(captured))
			var payload int64
			sawSummary := false
			start := time.Now()
			for {
				_, kind, err := dec.Next()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					return err
				}
				switch kind {
				case cluster.RecPayload:
					payload++
				case cluster.RecSummary:
					sawSummary = true
				}
			}
			put("cluster.decode_mb_s", mbPerS(int64(len(captured)), sinceMS(start)))
			if payload != p.wide.matched || !sawSummary {
				return fmt.Errorf("decoded %d payload records (summary %v), want %d", payload, sawSummary, p.wide.matched)
			}
			return nil
		}},
		// The coordinator against the slower of its two shards asked
		// directly, back to back for the same reason.
		{"cluster coordinator+shards", func(put func(string, float64)) error {
			start := time.Now()
			if err := front.containment("scan", selective, false, nil, rootSpan); err != nil {
				return err
			}
			whole := sinceMS(start)
			slower := 0.0
			var matched int64
			for i, sh := range shards {
				body := fmt.Sprintf(`%s,"shard":{"start":%d,"end":%d}}`, selBody[:len(selBody)-1], sh.Start, sh.End)
				start := time.Now()
				rp, err := shardClients[i].post("/v1/query", []byte(body), false, nil, rootSpan)
				slower = max(slower, sinceMS(start))
				if err != nil {
					return err
				}
				matched += int64(rp.features)
			}
			put("cluster.scatter_overhead_ms", whole-slower)
			if matched != selective.matched {
				return fmt.Errorf("shards matched %d features, want %d", matched, selective.matched)
			}
			return nil
		}},
	}
	return probes, stop, nil
}
