package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"atgis"
	"atgis/internal/geom"
	"atgis/internal/query"
	"atgis/internal/sidecar"
)

// The three library-level workloads call atgis.Engine directly: no
// admission, no server, no cluster. Every engine knob stays at the
// product default (zero Options: 1 MiB blocks, default cell batches).

func containmentSpec(box geom.Box) *query.Spec {
	return &query.Spec{Kind: query.Containment, Ref: box.AsPolygon(), Pred: query.PredIntersects, KeepMatches: true}
}

func aggregationSpec(box geom.Box) *query.Spec {
	return &query.Spec{Kind: query.Aggregation, Ref: box.AsPolygon(), Pred: query.PredIntersects,
		Dist: geom.Haversine, WantArea: true, WantPerimeter: true}
}

// execute prepares and runs one query, the unit a library caller pays
// for a window it has not asked before.
func execute(eng *atgis.Engine, src atgis.Source, spec *query.Spec, opt atgis.Options) (*atgis.Result, error) {
	pq, err := eng.Prepare(spec, opt)
	if err != nil {
		return nil, err
	}
	return pq.Execute(context.Background(), src)
}

// sidecarRatio is hits ÷ (hits + misses) summed over sources.
func sidecarRatio(srcs ...*atgis.MappedSource) float64 {
	var hits, total int64
	for _, s := range srcs {
		st := s.SidecarStats()
		hits += st.Hits
		total += st.Hits + st.Misses
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// engineLayers reads the scheduler and admission counters of engines.
func engineLayers(m map[string]float64, engs ...*atgis.Engine) {
	var hits, misses, rejected uint64
	for _, eng := range engs {
		st := eng.Stats()
		if st.Scheduler != nil {
			hits += st.Scheduler.LocalityHits
			misses += st.Scheduler.LocalityMisses
		}
		if st.Admission != nil {
			rejected += st.Admission.Rejected
		}
	}
	if hits+misses > 0 {
		m["pipeline.sched_locality_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	m["admission.rejected"] = float64(rejected)
}

// --- cold_scan ---

type coldScan struct {
	scan *dataset
	want windowWant
}

func (w *coldScan) prepare(e *env) (err error) {
	w.scan, err = e.dataset("scan", scanFeatures, atgis.GeoJSON, atgis.WKT, atgis.OSMXML)
	if err != nil {
		return err
	}
	w.want = w.scan.want(centredBox(fracScan))
	return nil
}

type scanVariant struct {
	src *atgis.MappedSource
	pq  *atgis.PreparedQuery
	ids bool // ids comparable with the generator's
}

type coldScanInst struct {
	w        *coldScan
	eng      *atgis.Engine
	srcs     []*atgis.MappedSource
	variants [4]scanVariant
	turn     int // position in the cycle, kept across windows
}

func (w *coldScan) setup(e *env) (instance, error) {
	in := &coldScanInst{w: w, eng: atgis.NewEngine(atgis.EngineConfig{Workers: e.nproc, Sidecar: atgis.SidecarOff})}
	ok := false
	defer func() {
		if !ok {
			in.close()
		}
	}()
	open := func(f atgis.Format) (*atgis.MappedSource, error) {
		src, err := atgis.OpenMapped(w.scan.path[f], f)
		if err == nil {
			in.srcs = append(in.srcs, src)
		}
		return src, err
	}
	gj, err := open(atgis.GeoJSON)
	if err != nil {
		return nil, err
	}
	wk, err := open(atgis.WKT)
	if err != nil {
		return nil, err
	}
	osm, err := open(atgis.OSMXML)
	if err != nil {
		return nil, err
	}
	spec := containmentSpec(w.want.box)
	for i, v := range []struct {
		src  *atgis.MappedSource
		mode atgis.Mode
		ids  bool
	}{{gj, atgis.PAT, true}, {gj, atgis.FAT, true}, {wk, atgis.PAT, true}, {osm, atgis.PAT, false}} {
		pq, err := in.eng.Prepare(spec, atgis.Options{Mode: v.mode})
		if err != nil {
			return nil, err
		}
		in.variants[i] = scanVariant{src: v.src, pq: pq, ids: v.ids}
		if _, err := pq.Execute(context.Background(), v.src); err != nil { // warm-up
			return nil, err
		}
	}
	ok = true
	return in, nil
}

// run interleaves the four variants round-robin so host drift hits all
// of them equally, and ends on a whole round.
func (in *coldScanInst) run(until time.Time, rec *recorder) {
	for ; time.Now().Before(until) || in.turn%4 != 0; in.turn++ {
		i := in.turn % 4
		v := in.variants[i]
		rec.op(opNames[i], func(int) error {
			res, err := v.pq.Execute(context.Background(), v.src)
			if err != nil {
				return err
			}
			return in.w.want.checkMatches(res, in.w.scan.n, v.ids)
		})
	}
}

func (in *coldScanInst) layers(m map[string]float64) {
	engineLayers(m, in.eng)
	m["sidecar.hit_ratio"] = sidecarRatio(in.srcs...)
}

func (in *coldScanInst) close() {
	for _, s := range in.srcs {
		s.Close()
	}
	in.eng.Close()
}

// --- warm_window ---

// windowsPerRound is how many warm windows run between two rebuilds of
// the index: the windows are the workload, the other three classes ride
// along often enough for a median.
const windowsPerRound = 50

// warmWindow queries the scan file; its join runs over the smaller join
// file so that a round leaves most of its time to the windows.
type warmWindow struct {
	scan, joined *dataset
	windows      []windowWant
	agg          windowWant
	join         *joinWant
}

func (w *warmWindow) prepare(e *env) (err error) {
	w.scan, err = e.dataset("scan", scanFeatures, atgis.GeoJSON)
	if err != nil {
		return err
	}
	w.joined, err = e.dataset("join", joinFeatures, atgis.GeoJSON)
	if err != nil {
		return err
	}
	w.windows = w.scan.wantAll(randomBoxes(e.cfg.seed, windowPool, fracSelective))
	w.agg = w.scan.want(centredBox(fracAgg))
	w.join, err = e.joinOracle(w.joined)
	return err
}

type warmWindowInst struct {
	w      *warmWindow
	eng    *atgis.Engine
	src    *atgis.MappedSource // the scan file; replaced by every rebuild
	joined *atgis.MappedSource
	next   int // next window of the pool
}

func (w *warmWindow) setup(e *env) (instance, error) {
	in := &warmWindowInst{w: w, eng: atgis.NewEngine(atgis.EngineConfig{Workers: e.nproc, Sidecar: atgis.SidecarReadWrite})}
	// Every set-up builds both indexes anew: the join file's by the first
	// join, which makes the warm-up below the first warm one.
	err := removeSidecar(w.joined.path[atgis.GeoJSON])
	if err == nil {
		in.joined, err = atgis.OpenMapped(w.joined.path[atgis.GeoJSON], atgis.GeoJSON)
	}
	if err != nil {
		in.close()
		return nil, err
	}
	if err := in.joinWarm(); err != nil {
		in.close()
		return nil, err
	}
	if _, err := in.rebuild(); err != nil {
		in.close()
		return nil, err
	}
	for _, warm := range []func() error{in.window, in.aggregate, in.joinWarm} {
		if err := warm(); err != nil {
			in.close()
			return nil, err
		}
	}
	return in, nil
}

func removeSidecar(path string) error {
	if err := os.Remove(sidecar.PathFor(path)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// rebuild deletes the sidecar, reopens the source and runs the first
// pass, which records the index and writes it. It returns the time of
// that pass alone. A fresh mapping is needed because a mapping
// validates its sidecar once.
func (in *warmWindowInst) rebuild() (time.Duration, error) {
	path := in.w.scan.path[atgis.GeoJSON]
	if in.src != nil {
		in.src.Close()
		in.src = nil
	}
	if err := removeSidecar(path); err != nil {
		return 0, err
	}
	src, err := atgis.OpenMapped(path, atgis.GeoJSON)
	if err != nil {
		return 0, err
	}
	in.src = src
	want := in.w.windows[0]
	start := time.Now()
	res, err := execute(in.eng, src, containmentSpec(want.box), atgis.Options{})
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	if err := want.checkMatches(res, in.w.scan.n, true); err != nil {
		return d, err
	}
	if st := src.SidecarStats(); !st.Built || st.WriteError != "" {
		return d, fmt.Errorf("first pass left no index (state %s, write error %q)", st.State, st.WriteError)
	}
	return d, nil
}

func (in *warmWindowInst) window() error {
	want := in.w.windows[in.next%len(in.w.windows)]
	in.next++
	res, err := execute(in.eng, in.src, containmentSpec(want.box), atgis.Options{})
	if err != nil {
		return err
	}
	return want.checkMatches(res, -1, true)
}

func (in *warmWindowInst) aggregate() error {
	res, err := execute(in.eng, in.src, aggregationSpec(in.w.agg.box), atgis.Options{})
	if err != nil {
		return err
	}
	if res.Res.Count != in.w.agg.matched {
		return fmt.Errorf("aggregated %d features, want %d", res.Res.Count, in.w.agg.matched)
	}
	return nil
}

func (in *warmWindowInst) joinWarm() error {
	jr, err := in.eng.Join(context.Background(), in.joined, paritySpec(), atgis.Options{})
	if err != nil {
		return err
	}
	var got pairDigest
	for _, p := range jr.Pairs {
		got.add(p.AID, p.BID)
	}
	return in.w.join.check(got)
}

func (in *warmWindowInst) run(until time.Time, rec *recorder) {
	for time.Now().Before(until) {
		end := rec.tr.begin("op2", rootSpan)
		d, err := in.rebuild()
		end()
		rec.add("op2", ms(d), err)
		if in.src == nil {
			return // the file cannot be reopened; the failure is counted
		}
		rec.op("op4", func(int) error { return in.joinWarm() })
		rec.op("op3", func(int) error { return in.aggregate() })
		for i := 0; i < windowsPerRound; i++ {
			rec.op("op1", func(int) error { return in.window() })
		}
	}
}

func (in *warmWindowInst) layers(m map[string]float64) {
	engineLayers(m, in.eng)
	if in.src != nil {
		m["sidecar.hit_ratio"] = sidecarRatio(in.src, in.joined)
	}
}

func (in *warmWindowInst) close() {
	for _, s := range []*atgis.MappedSource{in.src, in.joined} {
		if s != nil {
			s.Close()
		}
	}
	in.eng.Close()
}

// --- join_cells ---

// orderWindow is the window the coordinator forces onto scattered
// joins; the ordered classes use the same value.
const orderWindow = 64

type joinCells struct {
	data *dataset
	want *joinWant
}

func (w *joinCells) prepare(e *env) (err error) {
	w.data, err = e.dataset("join", joinFeatures, atgis.GeoJSON)
	if err != nil {
		return err
	}
	w.want, err = e.joinOracle(w.data)
	return err
}

type joinCellsInst struct {
	w    *joinCells
	eng  *atgis.Engine
	src  *atgis.MappedSource
	turn int // position in the cycle, kept across windows
}

func (w *joinCells) setup(e *env) (instance, error) {
	src, err := atgis.OpenMapped(w.data.path[atgis.GeoJSON], atgis.GeoJSON)
	if err != nil {
		return nil, err
	}
	in := &joinCellsInst{w: w, src: src, eng: atgis.NewEngine(atgis.EngineConfig{Workers: e.nproc, Sidecar: atgis.SidecarOff})}
	for _, warm := range []func() error{
		in.buffered,
		func() error { return in.streamed(0) },
		func() error { return in.streamed(orderWindow) },
		func() error { _, err := in.firstPair(); return err },
	} {
		if err := warm(); err != nil {
			in.close()
			return nil, err
		}
	}
	return in, nil
}

func (in *joinCellsInst) buffered() error {
	jr, err := in.eng.Join(context.Background(), in.src, paritySpec(), atgis.Options{})
	if err != nil {
		return err
	}
	var got pairDigest
	for _, p := range jr.Pairs {
		got.add(p.AID, p.BID)
	}
	return in.w.want.check(got)
}

func (in *joinCellsInst) streamed(window int) error {
	spec := paritySpec()
	spec.OrderWindow = window
	pairs := in.eng.JoinStream(context.Background(), in.src, spec, atgis.Options{})
	defer pairs.Close()
	var got pairDigest
	for pairs.Next() {
		p := pairs.Pair()
		got.add(p.AID, p.BID)
	}
	if _, err := pairs.Summary(); err != nil {
		return err
	}
	return in.w.want.check(got)
}

// firstPair is what a streaming client waits before it sees anything:
// the time from the call to the first pair (to the end of the stream
// when the join has no pairs). The rest of the join is abandoned.
func (in *joinCellsInst) firstPair() (time.Duration, error) {
	spec := paritySpec()
	spec.OrderWindow = orderWindow
	start := time.Now()
	pairs := in.eng.JoinStream(context.Background(), in.src, spec, atgis.Options{})
	got := pairs.Next()
	d := time.Since(start)
	var err error
	switch p := pairs.Pair(); {
	case got && !in.w.want.pairs[[2]int64{p.AID, p.BID}]:
		err = fmt.Errorf("first pair (%d, %d) is not in the oracle's pair set", p.AID, p.BID)
	case !got && in.w.want.digest.n > 0:
		err = fmt.Errorf("stream ended with no pair, want %d", in.w.want.digest.n)
	}
	if cerr := pairs.Close(); err == nil {
		err = cerr
	}
	return d, err
}

// run interleaves the four classes round-robin and ends on a whole
// round.
func (in *joinCellsInst) run(until time.Time, rec *recorder) {
	for ; time.Now().Before(until) || in.turn%4 != 0; in.turn++ {
		switch in.turn % 4 {
		case 0:
			rec.op("op1", func(int) error { return in.buffered() })
		case 1:
			rec.op("op2", func(int) error { return in.streamed(0) })
		case 2:
			rec.op("op3", func(int) error { return in.streamed(orderWindow) })
		case 3:
			end := rec.tr.begin("op4", rootSpan)
			d, err := in.firstPair()
			end()
			rec.add("op4", ms(d), err)
		}
	}
}

func (in *joinCellsInst) layers(m map[string]float64) {
	engineLayers(m, in.eng)
	m["sidecar.hit_ratio"] = sidecarRatio(in.src)
}

func (in *joinCellsInst) close() {
	in.src.Close()
	in.eng.Close()
}
