package join

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atgis/internal/geom"
	"atgis/internal/partition"
	"atgis/internal/pipeline"
)

// makeCellWorld builds a world with exactly one candidate pair per grid
// cell: a small square centred in every cell, present on both sides.
// It makes grant counting exact — every cell refines one pair, so each
// cell-batch task costs nCells·(predicate cost).
func makeCellWorld(nx, ny int, cellSize float64) (sa, sb *partition.Set, re Reparser) {
	extent := geom.Box{MinX: 0, MinY: 0, MaxX: float64(nx) * cellSize, MaxY: float64(ny) * cellSize}
	g := partition.NewGrid(extent, cellSize)
	sa = partition.NewSet(g, partition.ArrayStore)
	sb = partition.NewSet(g, partition.ArrayStore)
	geoms := make(map[int64]geom.Geometry)
	id := int64(0)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			cx := (float64(i) + 0.5) * cellSize
			cy := (float64(j) + 0.5) * cellSize
			s := cellSize / 4
			gm := geom.Polygon{geom.Ring{
				{X: cx - s, Y: cy - s}, {X: cx + s, Y: cy - s},
				{X: cx + s, Y: cy + s}, {X: cx - s, Y: cy + s}, {X: cx - s, Y: cy - s},
			}}
			off := id * 10
			geoms[off] = gm
			sa.Insert(partition.Entry{Box: gm.Bound(), Off: off, ID: id})
			sb.Insert(partition.Entry{Box: gm.Bound(), Off: off, ID: id})
			id++
		}
	}
	re = func(off int64) (geom.Geometry, error) { return geoms[off], nil }
	return sa, sb, re
}

// sleepyPredicate intersects after a short sleep, making per-batch cost
// dominated by a controlled constant instead of geometry complexity
// (sleeping rather than spinning keeps single-CPU hosts schedulable).
func sleepyPredicate(d time.Duration) func(a, b geom.Geometry) bool {
	return func(a, b geom.Geometry) bool {
		time.Sleep(d)
		return geom.Intersects(a, b)
	}
}

// TestJoinWeightedBatchConvergence is the preemption headline: two
// concurrent cell-batch join sweeps on one shared pool at tenant
// weights 1:3 must receive batch grants within ±10% of the 3.0 ratio
// while both are backlogged. Before re-quantisation this was
// structurally impossible — a granted sweep held its workers to the
// end, so weights only shaped acquisition order. Run under -race in CI.
func TestJoinWeightedBatchConvergence(t *testing.T) {
	const (
		nx, ny     = 50, 50 // 2500 cells, one refined pair each
		batchCells = 8      // 313 batches per sweep
	)
	pool := pipeline.NewPool(2)
	defer pool.Close()
	sa, sb, re := makeCellWorld(nx, ny, 2)

	lightCtx, stopLight := context.WithCancel(context.Background())
	defer stopLight()
	light := pool.Register(lightCtx, "light", 1, pipeline.JoinPass, 0)
	defer light.Close()
	heavy := pool.Register(context.Background(), "heavy", 3, pipeline.JoinPass, 0)
	defer heavy.Close()
	// granted reads a label's grant count from the scheduler snapshot;
	// each label here has one pass.
	granted := func(label string) uint64 {
		for _, ps := range pool.SchedSnapshot().Passes {
			if ps.Label == label {
				return ps.Granted
			}
		}
		return 0
	}

	var lightAtHeavyStart, lightAtHeavyDone atomic.Int64
	var heavyFirst sync.Once

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // weight-1 sweep
		defer wg.Done()
		_, err := RunStream(sa, sb, Config{
			Ctx:       lightCtx,
			Predicate: sleepyPredicate(50 * time.Microsecond),
			ReparseA:  re, ReparseB: re,
			Workers:    pool.Size(),
			Handle:     light,
			BatchCells: batchCells,
		}, func(Pair) {})
		if err != nil && lightCtx.Err() == nil {
			t.Error(err)
		}
	}()

	// Start the heavy sweep only once the light one is actively being
	// granted, so the measurement captures scheduling policy rather
	// than startup order.
	for deadline := time.Now().Add(10 * time.Second); granted("light") < 3; {
		if time.Now().After(deadline) {
			t.Fatal("light sweep never started receiving grants")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// The contention window runs from the heavy sweep's first grant to
	// its completion; afterwards work conservation would drift the
	// ratio back toward 1:1, so the light sweep is cancelled.
	_, err := RunStream(sa, sb, Config{
		Ctx: context.Background(),
		Predicate: func(a, b geom.Geometry) bool {
			heavyFirst.Do(func() { lightAtHeavyStart.Store(int64(granted("light"))) })
			return sleepyPredicate(50*time.Microsecond)(a, b)
		},
		ReparseA: re, ReparseB: re,
		Workers:    pool.Size(),
		Handle:     heavy,
		BatchCells: batchCells,
	}, func(Pair) {})
	lightAtHeavyDone.Store(int64(granted("light")))
	stopLight()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	heavyGrants := int64(granted("heavy"))
	lightGrants := lightAtHeavyDone.Load() - lightAtHeavyStart.Load()
	if lightGrants <= 0 {
		t.Fatalf("light sweep starved outright during heavy's run (advanced %d)", lightGrants)
	}
	ratio := float64(heavyGrants) / float64(lightGrants)
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("heavy:light batch-grant ratio = %.2f (heavy %d, light %d), want 3.0 ±10%%",
			ratio, heavyGrants, lightGrants)
	}
}

// TestJoinDoesNotStarveQueryPass: a query pass admitted while a large
// join sweep is running must start receiving workers within one
// cell-batch quantum — and complete long before the join does — because
// the join's workers return to the pool after every batch. On the sole
// worker of a 1-slot pool this is the strictest form: every grant must
// be re-arbitrated.
func TestJoinDoesNotStarveQueryPass(t *testing.T) {
	pool := pipeline.NewPool(1)
	defer pool.Close()
	sa, sb, re := makeCellWorld(50, 50, 2)

	joinDone := make(chan struct{})
	joinStarted := make(chan struct{})
	var once sync.Once
	handle := pool.Register(context.Background(), "join", 1, pipeline.JoinPass, 0)
	go func() {
		defer close(joinDone)
		defer handle.Close()
		_, err := RunStream(sa, sb, Config{
			Ctx: context.Background(),
			Predicate: func(a, b geom.Geometry) bool {
				once.Do(func() { close(joinStarted) })
				return sleepyPredicate(100*time.Microsecond)(a, b)
			},
			ReparseA: re, ReparseB: re,
			Workers:    pool.Size(),
			Handle:     handle,
			BatchCells: 8,
		}, func(Pair) {})
		if err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-joinStarted:
	case <-time.After(10 * time.Second):
		t.Fatal("join sweep never started")
	}

	// A small query pass on the same (fully join-occupied) pool.
	input := make([]byte, 16<<10)
	query := pool.Register(context.Background(), "query", 1, pipeline.QueryPass, 0)
	defer query.Close()
	_, err := pipeline.RunCtx(context.Background(), int64(len(input)),
		pipeline.FixedSplitter{BlockSize: 1 << 10}.Cuts,
		query,
		func(b pipeline.Block) int { return 0 },
		func(pipeline.Block, int) {},
	)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-joinDone:
		t.Fatal("join finished before the query pass — no contention was measured")
	default:
		// The query pass completed while the join still held most of
		// its sweep: preemption at the batch quantum worked.
	}
	<-joinDone
}

// TestJoinCancelFreesSlots: cancelling one of two concurrent sweeps
// mid-flight must free its worker slots for the survivor — which
// completes with the full pair set — and leak neither goroutines nor
// scheduler registrations.
func TestJoinCancelFreesSlots(t *testing.T) {
	pool := pipeline.NewPool(2)
	defer pool.Close()
	sa, sb, re := makeCellWorld(40, 40, 2)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	doomed := pool.Register(ctx, "doomed", 1, pipeline.JoinPass, 0)
	var granted atomic.Int64
	doomedDone := make(chan error, 1)
	go func() {
		_, err := RunStream(sa, sb, Config{
			Ctx: ctx,
			Predicate: func(a, b geom.Geometry) bool {
				if granted.Add(1) == 40 {
					cancel() // mid-sweep, from inside a refinement
				}
				return sleepyPredicate(20*time.Microsecond)(a, b)
			},
			ReparseA: re, ReparseB: re,
			Workers:    pool.Size(),
			Handle:     doomed,
			BatchCells: 8,
		}, func(Pair) {})
		doomed.Close()
		doomedDone <- err
	}()

	survivor := pool.Register(context.Background(), "survivor", 1, pipeline.JoinPass, 0)
	var pairs atomic.Int64
	_, err := RunStream(sa, sb, Config{
		Ctx:       context.Background(),
		Predicate: geom.Intersects,
		ReparseA:  re, ReparseB: re,
		Workers:    pool.Size(),
		Handle:     survivor,
		BatchCells: 8,
	}, func(Pair) { pairs.Add(1) })
	survivor.Close()
	if err != nil {
		t.Fatal(err)
	}
	if pairs.Load() != 40*40 {
		t.Fatalf("survivor emitted %d pairs, want %d", pairs.Load(), 40*40)
	}

	select {
	case derr := <-doomedDone:
		if derr == nil {
			t.Fatal("cancelled sweep returned nil error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled sweep never returned")
	}

	settle := func(cond func() bool) bool {
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
			if cond() {
				return true
			}
			time.Sleep(time.Millisecond)
		}
		return cond()
	}
	if !settle(func() bool { return pool.Busy() == 0 }) {
		t.Fatalf("worker slots leaked: busy = %d", pool.Busy())
	}
	if !settle(func() bool { return runtime.NumGoroutine() <= before+2 }) {
		t.Fatalf("goroutines leaked: before=%d now=%d", before, runtime.NumGoroutine())
	}
	if snap := pool.SchedSnapshot(); len(snap.Passes) != 0 {
		t.Fatalf("scheduler registrations leaked: %+v", snap.Passes)
	}
}

// TestJoinDenseCellStopsOnCancel: one cell of 1 000 × 1 000 nested squares,
// every pair intersecting, is one batch of a million candidates. A cancel
// from inside it must stop the cell within 64 A entries, not after it.
func TestJoinDenseCellStopsOnCancel(t *testing.T) {
	const n = 1000
	sq := func(h float64) geom.Geometry {
		return geom.Polygon{geom.Ring{
			{X: 50 - h, Y: 50 - h}, {X: 50 + h, Y: 50 - h}, {X: 50 + h, Y: 50 + h}, {X: 50 - h, Y: 50 + h}, {X: 50 - h, Y: 50 - h},
		}}
	}
	geoms := make(map[int64]geom.Geometry, 2*n)
	var as, bs []geom.Feature
	for i := range n {
		a := geom.Feature{ID: int64(i), Offset: int64(i) * 10, Geom: sq(0.04 * float64(i+1))}
		b := geom.Feature{ID: int64(n + i), Offset: 1_000_000 + int64(i)*10, Geom: sq(0.04*float64(i+1) + 0.02)}
		geoms[a.Offset], geoms[b.Offset] = a.Geom, b.Geom
		as, bs = append(as, a), append(bs, b)
	}
	sa, sb := buildSets(as, bs, 100, partition.ArrayStore) // one cell
	re := func(off int64) (geom.Geometry, error) { return geoms[off], nil }
	for _, kern := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		calls := 0
		_, err := RunStream(sa, sb, Config{
			Ctx:       ctx,
			Predicate: geom.Intersects,
			ReparseA: func(off int64) (geom.Geometry, error) {
				if calls++; calls == 5 {
					cancel()
				}
				return re(off)
			},
			ReparseB:     re,
			Workers:      1,
			KernelRefine: kern,
		}, func(Pair) {})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("kernel %v: RunStream returned %v, want context.Canceled", kern, err)
		}
		if calls >= 5+64 {
			t.Fatalf("kernel %v: %d A entries reparsed after a cancel at the 5th — the cell ran on", kern, calls)
		}
	}
}
