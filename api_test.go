package atgis

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"atgis/internal/cluster"
	"atgis/internal/geom"
	"atgis/internal/query"
	"atgis/internal/synth"
)

// writeTempGeoJSON generates a synthetic GeoJSON file on disk.
func writeTempGeoJSON(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.geojson")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	g := synth.New(synth.Config{Seed: 12345, N: n, MultiPolyFrac: 0.15, LineFrac: 0.15, MetadataBytes: 40})
	if err := g.WriteGeoJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenMappedLifecycle(t *testing.T) {
	path := writeTempGeoJSON(t, 100)
	src, err := OpenMapped(path, AutoDetect)
	if err != nil {
		t.Fatal(err)
	}
	if src.DataFormat() != GeoJSON {
		t.Fatalf("format = %v, want geojson", src.DataFormat())
	}
	if len(src.Bytes()) == 0 {
		t.Fatal("empty mapping")
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(src.Bytes())) != st.Size() {
		t.Fatalf("mapped %d bytes, file is %d", len(src.Bytes()), st.Size())
	}

	// Queries over the mapping produce the same result as the in-memory
	// source.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := FromBytes(data, AutoDetect)
	if err != nil {
		t.Fatal(err)
	}
	spec := aggSpec()
	rm, err := testEngine(t, 2).Query(context.Background(), src, spec, Options{BlockSize: 8192})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := testEngine(t, 2).Query(context.Background(), mem, spec, Options{BlockSize: 8192})
	if err != nil {
		t.Fatal(err)
	}
	if rm.Res.Count != rb.Res.Count || rm.Res.Scanned != rb.Res.Scanned || rm.Res.SumArea != rb.Res.SumArea {
		t.Fatalf("mmap result %+v != in-memory %+v", rm.Res, rb.Res)
	}

	// Close is idempotent and releases the view.
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if src.Bytes() != nil {
		t.Fatal("Bytes() non-nil after Close")
	}

	// Empty files map to an empty, closeable source (explicit format:
	// nothing to detect from zero bytes).
	empty := filepath.Join(t.TempDir(), "empty.wkt")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	es, err := OpenMapped(empty, WKT)
	if err != nil {
		t.Fatal(err)
	}
	if len(es.Bytes()) != 0 {
		t.Fatal("empty file mapped non-empty")
	}
	if err := es.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderSource(t *testing.T) {
	ds := genDataset(t, GeoJSON, 50)
	src, err := ReaderSource(bytes.NewReader(ds.Data), AutoDetect)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if src.DataFormat() != GeoJSON {
		t.Fatalf("format = %v", src.DataFormat())
	}
	res, err := testEngine(t, 2).Query(context.Background(), src, aggSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Res.Scanned != 50 {
		t.Fatalf("scanned = %d, want 50", res.Res.Scanned)
	}
}

// TestConcurrentExecuteSharedSource is the headline redesign invariant:
// one engine, one prepared query, one mmap-backed source, many
// goroutines executing concurrently — independent, correct results.
func TestConcurrentExecuteSharedSource(t *testing.T) {
	path := writeTempGeoJSON(t, 400)
	src, err := OpenMapped(path, AutoDetect)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	eng := NewEngine(EngineConfig{Workers: 4})
	defer eng.Close()
	pq, err := eng.Prepare(aggSpec(), Options{BlockSize: 4096, Mode: FAT})
	if err != nil {
		t.Fatal(err)
	}

	// Reference result, sequentially.
	want, err := pq.Execute(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if want.Res.Count == 0 {
		t.Fatal("no matches in reference run")
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	results := make([]*Result, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = pq.Execute(context.Background(), src)
		}(i)
	}
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		r := results[i]
		if r.Res.Count != want.Res.Count || r.Res.Scanned != want.Res.Scanned ||
			r.Res.SumArea != want.Res.SumArea || r.Res.SumPerimeter != want.Res.SumPerimeter {
			t.Fatalf("goroutine %d: result %+v != reference %+v", i, r.Res, want.Res)
		}
	}
}

// TestCancelOneOfTwoQueries cancels one of two concurrent executions of
// the same prepared query; the cancelled one stops with ctx's error,
// the other completes with a correct result.
func TestCancelOneOfTwoQueries(t *testing.T) {
	path := writeTempGeoJSON(t, 2000)
	src, err := OpenMapped(path, AutoDetect)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	eng := NewEngine(EngineConfig{Workers: 4})
	defer eng.Close()
	// Tiny blocks so the cancelled stream is reliably mid-pipeline when
	// it is abandoned.
	pq, err := eng.Prepare(&query.Spec{
		Kind: query.Containment,
		Ref:  geom.Box{MinX: -180, MinY: -90, MaxX: 180, MaxY: 90}.AsPolygon(),
		Pred: query.PredIntersects,
	}, Options{BlockSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	want, err := pq.Execute(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(2)
	var okRes *Result
	var okErr error
	go func() {
		defer wg.Done()
		okRes, okErr = pq.Execute(context.Background(), src)
	}()
	var cancelled error
	go func() {
		defer wg.Done()
		// Stream with a full-backpressure consumer: read one match, then
		// abandon — the producer pipeline must stop, not run to the end.
		res := pq.Stream(context.Background(), src)
		if !res.Next() {
			cancelled = fmt.Errorf("stream produced nothing: %v", res.Err())
			return
		}
		if err := res.Close(); err != nil {
			cancelled = err
			return
		}
		if _, err := res.Summary(); err == nil {
			cancelled = fmt.Errorf("abandoned stream reported a complete summary")
		}
	}()
	wg.Wait()
	if okErr != nil {
		t.Fatalf("unaffected query failed: %v", okErr)
	}
	if cancelled != nil {
		t.Fatal(cancelled)
	}
	if okRes.Res.Count != want.Res.Count || okRes.Res.Scanned != want.Res.Scanned {
		t.Fatalf("unaffected query result %+v != reference %+v", okRes.Res, want.Res)
	}
}

// TestCancelledContextNoGoroutineLeak runs many cancelled executions and
// asserts the process goroutine count returns to its baseline: cancelled
// pipelines must terminate their splitter and their registration's watcher.
func TestCancelledContextNoGoroutineLeak(t *testing.T) {
	ds := genDataset(t, GeoJSON, 1000)
	pq, err := testEngine(t, 4).Prepare(aggSpec(), Options{BlockSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		res := pq.Stream(ctx, ds)
		if res.Next() {
			// mid-stream: at least one block merged, pipeline running
		}
		cancel()
		res.Close()
	}
	// Also: context cancelled before Execute even starts.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pq.Execute(ctx, ds); err == nil {
		t.Fatal("Execute with cancelled context returned nil error")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // helps finalize pipeline goroutines promptly
		now := runtime.NumGoroutine()
		if now <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d now=%d", before, now)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamMatchesBufferedQuery checks the streaming iterator yields
// exactly the KeepMatches result set, in input order, and the terminal
// summary agrees with the blocking execution.
func TestStreamMatchesBufferedQuery(t *testing.T) {
	for _, mode := range []Mode{PAT, FAT} {
		ds := genDataset(t, GeoJSON, 300)
		spec := aggSpec()
		spec.KeepMatches = true
		buffered, err := testEngine(t, 2).Query(context.Background(), ds, spec, Options{Mode: mode, BlockSize: 4096})
		if err != nil {
			t.Fatal(err)
		}

		streamSpec := aggSpec() // no KeepMatches: nothing buffers
		pq, err := testEngine(t, 2).Prepare(streamSpec, Options{Mode: mode, BlockSize: 4096})
		if err != nil {
			t.Fatal(err)
		}
		res := pq.Stream(context.Background(), ds)
		var offsets []int64
		for res.Next() {
			offsets = append(offsets, res.Feature().Offset)
			if !res.Value().Matched {
				t.Fatal("stream yielded an unmatched feature")
			}
		}
		sum, err := res.Summary()
		if err != nil {
			t.Fatal(err)
		}
		if len(sum.Res.Matches) != 0 {
			t.Fatalf("%v: streaming run buffered %d matches", mode, len(sum.Res.Matches))
		}
		if len(offsets) != len(buffered.Res.Matches) {
			t.Fatalf("%v: streamed %d matches, buffered %d", mode, len(offsets), len(buffered.Res.Matches))
		}
		for i, m := range buffered.Res.Matches {
			if offsets[i] != m.Offset {
				t.Fatalf("%v: match %d offset %d != %d (stream must be in input order)", mode, i, offsets[i], m.Offset)
			}
		}
		if sum.Res.Count != buffered.Res.Count || sum.Res.SumArea != buffered.Res.SumArea {
			t.Fatalf("%v: summary %+v != buffered %+v", mode, sum.Res, buffered.Res)
		}
	}
}

// TestJoinStreamMatchesJoin checks the streaming join yields exactly the
// buffered join's pair set, and that both did the same work: one sweep,
// duplicates dropped before refinement in either flavour.
func TestJoinStreamMatchesJoin(t *testing.T) {
	ds := genDataset(t, WKT, 200)
	// Self-join: the synthetic features overlap rarely at this scale,
	// but every feature intersects itself, so the compared pair sets
	// are guaranteed non-empty.
	mask := func(*geom.Feature) uint8 { return query.SideA | query.SideB }
	spec := JoinSpec{Mask: mask, CellSize: 15}
	jr, err := testEngine(t, 2).Join(context.Background(), ds, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(jr.Pairs) == 0 {
		t.Fatal("buffered join found no pairs; bad test data")
	}
	want := make(map[[2]int64]bool, len(jr.Pairs))
	for _, p := range jr.Pairs {
		want[[2]int64{p.AOff, p.BOff}] = true
	}

	stream := testEngine(t, 2).JoinStream(context.Background(), ds, spec, Options{})
	got := make(map[[2]int64]bool)
	for stream.Next() {
		p := stream.Pair()
		k := [2]int64{p.AOff, p.BOff}
		if got[k] {
			t.Fatalf("duplicate pair streamed: %+v", p)
		}
		got[k] = true
	}
	sum, err := stream.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if sum.JoinStats != jr.JoinStats {
		t.Fatalf("stream stats %+v, buffered join %+v", sum.JoinStats, jr.JoinStats)
	}
	if jr.JoinStats.Duplicates == 0 {
		t.Fatal("no duplicate dropped; bad test data")
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d pairs, buffered join has %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("pair %v missing from stream", k)
		}
	}
}

func TestEngineClose(t *testing.T) {
	eng := NewEngine(EngineConfig{Workers: 2})
	ds := genDataset(t, GeoJSON, 20)
	if _, err := eng.Query(context.Background(), ds, aggSpec(), Options{}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := eng.Query(context.Background(), ds, aggSpec(), Options{}); err != ErrEngineClosed {
		t.Fatalf("query on closed engine: %v, want ErrEngineClosed", err)
	}
	if _, err := eng.Prepare(aggSpec(), Options{}); err != ErrEngineClosed {
		t.Fatalf("prepare on closed engine: %v, want ErrEngineClosed", err)
	}
}

// TestJoinCellBound: a join cell finer than MinJoinCell, wider than the
// world or NaN is an error from every join entry point, returned before a
// grid is allocated (0.001° would be 6.5·10¹⁰ cells, ≈ 1.5 TB of cell
// slices); a zero CellSize still means 1°.
func TestJoinCellBound(t *testing.T) {
	eng := testEngine(t, 2)
	ctx := context.Background()
	ds := genDataset(t, GeoJSON, 200)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := eng.Join(ctx, ds, JoinSpec{CellSize: 0.001}, Options{})
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "join cell size") {
		t.Fatalf("Join at 0.001°: %v, want the cell-size error", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("Join at 0.001° allocated %d bytes before failing", n)
	}
	for _, cell := range []float64{-1, 0.09, 361, math.NaN()} {
		_, joinErr := eng.Join(ctx, ds, JoinSpec{CellSize: cell}, Options{})
		_, streamErr := eng.JoinStream(ctx, ds, JoinSpec{CellSize: cell}, Options{}).Summary()
		_, combinedErr := eng.Combined(ctx, ds, CombinedSpec{CellSize: cell}, Options{})
		for name, err := range map[string]error{"Join": joinErr, "JoinStream": streamErr, "Combined": combinedErr} {
			if err == nil {
				t.Errorf("%s at %g°: no error", name, cell)
			}
		}
	}
	for _, cell := range []float64{0, 360} {
		if _, err := eng.Join(ctx, ds, JoinSpec{CellSize: cell}, Options{}); err != nil {
			t.Errorf("Join at %g°: %v", cell, err)
		}
	}
}

// TestJoinGridMatchesCoordinator: a coordinator bands a join by
// cluster.GridCells, so at every accepted cell size that count must be
// the number of cells of the grid the engine's partition pass builds.
func TestJoinGridMatchesCoordinator(t *testing.T) {
	eng := testEngine(t, 1)
	for _, cell := range []float64{0, 0.1, 1, 2.5, 360} {
		src, err := ReaderSource(strings.NewReader(`{"type":"FeatureCollection","features":[]}`), GeoJSON)
		if err != nil {
			t.Fatal(err)
		}
		sink, _, _, err := eng.joinPartitionPhase(context.Background(), src, &JoinSpec{CellSize: cell}, Options{})
		if err != nil {
			t.Fatalf("cell %g: %v", cell, err)
		}
		if got, want := cluster.GridCells(cell), sink.Sets[0].Grid.NumCells(); got != want {
			t.Errorf("cell %g: the coordinator counts %d cells, the engine's grid has %d", cell, got, want)
		}
	}
}

// TestZeroValueEngine: an Engine that NewEngine did not build has no pool
// and is no engine — every entry point fails like a closed one, and
// nothing dereferences the pool that is not there.
func TestZeroValueEngine(t *testing.T) {
	var eng Engine
	ctx := context.Background()
	ds := genDataset(t, GeoJSON, 20)
	_, queryErr := eng.Query(ctx, ds, aggSpec(), Options{})
	_, prepareErr := eng.Prepare(aggSpec(), Options{})
	_, joinErr := eng.Join(ctx, ds, JoinSpec{CellSize: 10}, Options{})
	_, streamErr := eng.JoinStream(ctx, ds, JoinSpec{CellSize: 10}, Options{}).Summary()
	_, collectErr := eng.CollectFeatures(ctx, ds, Options{})
	for name, err := range map[string]error{
		"Query": queryErr, "Prepare": prepareErr, "Join": joinErr,
		"JoinStream": streamErr, "CollectFeatures": collectErr,
	} {
		if !errors.Is(err, ErrEngineClosed) {
			t.Errorf("%s on a zero-value Engine: %v, want ErrEngineClosed", name, err)
		}
	}
	if st := eng.Stats(); st.Pool.Workers != 0 || st.Scheduler != nil {
		t.Errorf("zero-value Engine reports %+v", st)
	}
	if err := eng.Close(); err != nil {
		t.Error(err)
	}
}

func TestPrepareRejectsJoinKinds(t *testing.T) {
	if _, err := testEngine(t, 0).Prepare(&query.Spec{Kind: query.Join}, Options{}); err == nil {
		t.Fatal("preparing a join spec should fail")
	}
	if _, err := testEngine(t, 0).Prepare(nil, Options{}); err == nil {
		t.Fatal("preparing a nil spec should fail")
	}
	for _, ref := range []geom.Box{
		{MinX: math.NaN(), MinY: -10, MaxX: 10, MaxY: 10},
		{MinX: math.Inf(-1), MinY: math.Inf(-1), MaxX: math.Inf(1), MaxY: math.Inf(1)},
	} {
		spec := &query.Spec{Kind: query.Aggregation, Ref: ref.AsPolygon(), Pred: query.PredIntersects}
		if _, err := testEngine(t, 0).Prepare(spec, Options{}); err == nil {
			t.Errorf("preparing a query against %v should fail", ref)
		}
	}
}

func TestDetectBareWKT(t *testing.T) {
	cases := []struct {
		data []byte
		want Format
	}{
		{[]byte("POINT (1 2)\n"), WKT},
		{[]byte("  \n\tPOLYGON ((0 0, 1 0, 1 1, 0 0))\n"), WKT},
		{[]byte("LINESTRING (0 0, 1 1)\n"), WKT},
		{[]byte("MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)))\n"), WKT},
		{[]byte("GEOMETRYCOLLECTION (POINT (1 2))\n"), WKT},
		{[]byte("POINTER (1 2)\n"), AutoDetect}, // keyword must end at a non-letter
		{[]byte("FOO (1 2)\n"), AutoDetect},
	}
	for _, tc := range cases {
		if got := DetectFormat(tc.data); got != tc.want {
			t.Errorf("DetectFormat(%q) = %v, want %v", tc.data, got, tc.want)
		}
	}

	// Bare WKT lines parse end-to-end, not just detect.
	src, err := FromBytes([]byte("POINT (10 10)\nPOLYGON ((0 0, 20 0, 20 20, 0 20, 0 0))\n"), AutoDetect)
	if err != nil {
		t.Fatal(err)
	}
	res, err := testEngine(t, 2).Query(context.Background(), src, &query.Spec{
		Kind: query.Containment,
		Ref:  geom.Box{MinX: -1, MinY: -1, MaxX: 30, MaxY: 30}.AsPolygon(),
		Pred: query.PredIntersects,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Res.Scanned != 2 || res.Res.Count != 2 {
		t.Fatalf("bare WKT query scanned=%d count=%d, want 2/2", res.Res.Scanned, res.Res.Count)
	}

	// Detection failure names the supported formats.
	_, err = FromBytes([]byte("???"), AutoDetect)
	if err == nil {
		t.Fatal("undetectable input should error")
	}
	for _, word := range []string{"GeoJSON", "WKT", "OSM XML", "POINT"} {
		if !strings.Contains(err.Error(), word) {
			t.Errorf("detection error %q does not mention %s", err, word)
		}
	}
}

// TestSummaryWithoutDraining calls Summary/Err immediately, without
// iterating: the stream must discard unconsumed items and complete the
// pass instead of deadlocking on its own backpressure (the channel
// buffer is far smaller than the match count).
func TestSummaryWithoutDraining(t *testing.T) {
	ds := genDataset(t, GeoJSON, 500)
	spec := aggSpec() // matches >> the 64-item stream buffer
	want, err := testEngine(t, 2).Query(context.Background(), ds, spec, Options{BlockSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	pq, err := testEngine(t, 2).Prepare(spec, Options{BlockSize: 4096})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var sum *Result
	go func() {
		defer close(done)
		var serr error
		sum, serr = pq.Stream(context.Background(), ds).Summary()
		if serr != nil {
			t.Error(serr)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Summary() deadlocked on an undrained stream")
	}
	if sum.Res.Count != want.Res.Count || sum.Res.Scanned != want.Res.Scanned {
		t.Fatalf("summary %+v != buffered %+v", sum.Res, want.Res)
	}

	// Same for the join pair stream.
	dsw := genDataset(t, WKT, 200)
	mask := func(f *geom.Feature) uint8 {
		if f.ID%2 == 0 {
			return query.SideA
		}
		return query.SideB
	}
	jdone := make(chan struct{})
	go func() {
		defer close(jdone)
		if _, err := testEngine(t, 2).JoinStream(context.Background(), dsw,
			JoinSpec{Mask: mask, CellSize: 15}, Options{}).Summary(); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-jdone:
	case <-time.After(10 * time.Second):
		t.Fatal("JoinPairs.Summary() deadlocked on an undrained stream")
	}
}

// TestPooledEngineJoin runs joins on an engine with a shared pool (the
// sweep workers occupy pool slots via join.Config.Go) and checks the
// results match the pool-less path, including under concurrency.
func TestPooledEngineJoin(t *testing.T) {
	ds := genDataset(t, WKT, 200)
	mask := func(f *geom.Feature) uint8 {
		if f.ID%2 == 0 {
			return query.SideA
		}
		return query.SideB
	}
	spec := JoinSpec{Mask: mask, CellSize: 15}
	want, err := testEngine(t, 2).Join(context.Background(), ds, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}

	eng := NewEngine(EngineConfig{Workers: 2})
	defer eng.Close()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jr, err := eng.Join(context.Background(), ds, spec, Options{})
			if err != nil {
				t.Error(err)
				return
			}
			if len(jr.Pairs) != len(want.Pairs) {
				t.Errorf("pooled join: %d pairs, want %d", len(jr.Pairs), len(want.Pairs))
			}
		}()
	}
	wg.Wait()

	// Streaming flavour on the pooled engine.
	pairs := eng.JoinStream(context.Background(), ds, spec, Options{})
	n := 0
	for pairs.Next() {
		n++
	}
	if err := pairs.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(want.Pairs) {
		t.Fatalf("pooled stream: %d pairs, want %d", n, len(want.Pairs))
	}
}

// TestEngineSchedulerStats checks the weighted block-dispatch scheduler
// surfaces through Engine.Stats: a pass registered under a tenant is
// visible (with its configured weight) while it runs, its entry is
// released when the pass deregisters, and the pool's lifetime grant
// counter advances.
func TestEngineSchedulerStats(t *testing.T) {
	ds := genDataset(t, GeoJSON, 2000)
	eng := NewEngine(EngineConfig{Workers: 2, TenantWeights: map[string]int{"gold": 3}})
	defer eng.Close()

	st := eng.Stats()
	if st.Scheduler == nil {
		t.Fatal("pooled engine reports no scheduler stats")
	}
	if st.Scheduler.TotalGrantedBlocks != 0 || len(st.Scheduler.Tenants) != 0 {
		t.Fatalf("idle scheduler stats = %+v", st.Scheduler)
	}

	// A streaming pass with an unconsumed iterator blocks mid-pass on
	// backpressure (the dataset matches far more features than the
	// stream's 64-slot buffer), holding its scheduler registration live
	// for inspection.
	pq, err := eng.Prepare(aggSpec(), Options{BlockSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	res := pq.Stream(WithTenant(context.Background(), "gold"), ds)
	var live SchedulerTenantStats
	deadline := time.Now().Add(10 * time.Second)
	for {
		if ts, ok := eng.Stats().Scheduler.Tenants["gold"]; ok {
			live = ts
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("tenant never appeared in scheduler stats while its pass ran")
		}
		time.Sleep(time.Millisecond)
	}
	if live.Weight != 3 || live.Passes < 1 {
		t.Fatalf("live tenant stats = %+v, want weight 3 with a registered pass", live)
	}
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}

	after := eng.Stats()
	if after.Scheduler.TotalGrantedBlocks == 0 {
		t.Fatal("no blocks were granted through the scheduler")
	}
	if len(after.Scheduler.Tenants) != 0 {
		t.Fatalf("tenant entries leaked after pass completion: %+v", after.Scheduler.Tenants)
	}
}

// TestJoinStreamOrdered: the streamed pair sequence is deterministic —
// identical across runs, across engine worker counts, and whether or not
// a spec still sets the deprecated OrderWindow.
func TestJoinStreamOrdered(t *testing.T) {
	ds := genDataset(t, WKT, 400)
	// Self-join mask: the synthetic features overlap rarely, but every
	// feature intersects itself, so each occupied cell owns pairs and
	// the ordered fold has real work.
	mask := func(*geom.Feature) uint8 { return query.SideA | query.SideB }
	engines := map[int]*Engine{}
	for _, w := range []int{1, 4} {
		engines[w] = NewEngine(EngineConfig{Workers: w})
		defer engines[w].Close()
	}

	collect := func(workers int, spec JoinSpec) []int64 {
		stream := engines[workers].JoinStream(context.Background(), ds, spec, Options{BlockSize: 4096})
		var seq []int64
		for stream.Next() {
			p := stream.Pair()
			seq = append(seq, p.AOff, p.BOff)
		}
		if err := stream.Err(); err != nil {
			t.Fatal(err)
		}
		return seq
	}
	same := func(what string, got, want []int64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s diverged at %d: the join stream must be deterministic", what, i)
			}
		}
	}

	// 2 592 cells: eleven batches on four workers, so batches complete
	// out of order and the ordered fold has to wait for its head.
	ordered := JoinSpec{Mask: mask, CellSize: 5, OrderWindow: 16}
	first := collect(4, ordered)
	if len(first) == 0 {
		t.Fatal("ordered join stream found no pairs")
	}
	for run := 0; run < 2; run++ {
		same(fmt.Sprintf("run %d", run), collect(4, ordered), first)
	}
	for _, w := range []int{1, 4} {
		same(fmt.Sprintf("zero OrderWindow on %d workers", w), collect(w, JoinSpec{Mask: mask, CellSize: 5}), first)
	}
}

// TestJoinStreamCloseFreesPool: abandoning one of two concurrent join
// streams on a pooled engine mid-iteration must not disturb the other
// join, and afterwards the pool must be idle with no scheduler entries
// or goroutines left behind — the engine-level half of the preemption
// story (the join-level half lives in internal/join).
func TestJoinStreamCloseFreesPool(t *testing.T) {
	ds := genDataset(t, WKT, 400)
	mask := func(*geom.Feature) uint8 { return query.SideA | query.SideB }
	// Fine cells: 64 cell-batch quanta to abandon between.
	spec := JoinSpec{Mask: mask, CellSize: 2}
	eng := NewEngine(EngineConfig{Workers: 2, TenantWeights: map[string]int{"keeper": 3}})
	defer eng.Close()

	want, err := testEngine(t, 2).Join(context.Background(), ds, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	abandoned := eng.JoinStream(WithTenant(context.Background(), "quitter"), ds, spec, Options{})
	var survived int
	done := make(chan struct{})
	go func() {
		defer close(done)
		keeper := eng.JoinStream(WithTenant(context.Background(), "keeper"), ds, spec, Options{})
		for keeper.Next() {
			survived++
		}
		if err := keeper.Err(); err != nil {
			t.Error(err)
		}
	}()
	if abandoned.Next() { // at least one pair in flight, then walk away
		if err := abandoned.Close(); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if survived != len(want.Pairs) {
		t.Fatalf("surviving join streamed %d pairs, want %d", survived, len(want.Pairs))
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		st := eng.Stats()
		if st.Pool.Busy == 0 && len(st.Scheduler.Tenants) == 0 &&
			runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("engine not quiesced: busy=%d tenants=%v goroutines=%d (baseline %d)",
				st.Pool.Busy, st.Scheduler.Tenants, runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := eng.Stats(); st.Scheduler.TotalGrantedCellBatches == 0 {
		t.Fatal("no cell batches were granted through the scheduler")
	}
}
