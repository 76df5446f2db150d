package join

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atgis/internal/geom"
	"atgis/internal/partition"
)

// makeWorld builds two random square sets plus reparsers keyed by
// synthetic offsets.
func makeWorld(seed int64, nA, nB int) (as, bs []geom.Feature, reA, reB Reparser) {
	rng := rand.New(rand.NewSource(seed))
	mk := func(n int, base int64) ([]geom.Feature, map[int64]geom.Geometry) {
		feats := make([]geom.Feature, n)
		byOff := make(map[int64]geom.Geometry, n)
		for i := range feats {
			x := rng.Float64() * 90
			y := rng.Float64() * 90
			s := rng.Float64()*5 + 0.2
			g := geom.Polygon{geom.Ring{
				{X: x, Y: y}, {X: x + s, Y: y}, {X: x + s, Y: y + s}, {X: x, Y: y + s}, {X: x, Y: y},
			}}
			off := base + int64(i*10)
			feats[i] = geom.Feature{ID: base + int64(i), Geom: g, Offset: off}
			byOff[off] = g
		}
		return feats, byOff
	}
	as, ma := mk(nA, 0)
	bs, mb := mk(nB, 1_000_000)
	reA = func(off int64) (geom.Geometry, error) {
		g, ok := ma[off]
		if !ok {
			return nil, fmt.Errorf("missing offset %d", off)
		}
		return g, nil
	}
	reB = func(off int64) (geom.Geometry, error) {
		g, ok := mb[off]
		if !ok {
			return nil, fmt.Errorf("missing offset %d", off)
		}
		return g, nil
	}
	return as, bs, reA, reB
}

func buildSets(as, bs []geom.Feature, cellSize float64, kind partition.StoreKind) (*partition.Set, *partition.Set) {
	extent := geom.Box{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	g := partition.NewGrid(extent, cellSize)
	sa := partition.NewSet(g, kind)
	sb := partition.NewSet(g, kind)
	for _, f := range as {
		sa.Insert(partition.Entry{Box: f.Geom.Bound(), Off: f.Offset, ID: f.ID})
	}
	for _, f := range bs {
		sb.Insert(partition.Entry{Box: f.Geom.Bound(), Off: f.Offset, ID: f.ID})
	}
	return sa, sb
}

func pairsEqual(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// cellOrder keys a pair of as × bs by where the sweep emits it: its
// owning cell (the cell of the lower-left corner of the pair's MBR
// intersection), then its A entry's position in that cell, then its B
// entry's.
func cellOrder(sa, sb *partition.Set, as, bs []geom.Feature) func(Pair) [3]int {
	boxes := make(map[int64]geom.Box, len(as)+len(bs))
	for _, f := range as {
		boxes[f.Offset] = f.Geom.Bound()
	}
	for _, f := range bs {
		boxes[f.Offset] = f.Geom.Bound()
	}
	pos := func(s *partition.Set, c int, off int64) int {
		return slices.IndexFunc(s.Cell(c), func(e partition.Entry) bool { return e.Off == off })
	}
	return func(p Pair) [3]int {
		a, b := boxes[p.AOff], boxes[p.BOff]
		c := sa.Grid.CellOf(max(a.MinX, b.MinX), max(a.MinY, b.MinY))
		return [3]int{c, pos(sa, c, p.AOff), pos(sb, c, p.BOff)}
	}
}

// checkCellOrder fails unless seq is in the sweep's order: nondecreasing
// owning cell, and within a cell A entries in cell order, each with its B
// partners in cell order.
func checkCellOrder(t *testing.T, seq []Pair, key func(Pair) [3]int) {
	t.Helper()
	for i := 1; i < len(seq); i++ {
		if k0, k1 := key(seq[i-1]), key(seq[i]); slices.Compare(k0[:], k1[:]) >= 0 {
			t.Fatalf("pair %d at (cell, A, B) positions %v after %v — not in cell order", i, k1, k0)
		}
	}
}

func TestJoinMatchesNestedLoop(t *testing.T) {
	as, bs, reA, reB := makeWorld(42, 80, 70)
	want := NestedLoop(as, bs, geom.Intersects)
	if len(want) == 0 {
		t.Fatal("oracle found no pairs; bad test data")
	}
	for _, cellSize := range []float64{5, 10, 25, 100} {
		for _, kind := range []partition.StoreKind{partition.ArrayStore, partition.ListStore} {
			sa, sb := buildSets(as, bs, cellSize, kind)
			got, st, err := Run(sa, sb, Config{
				Predicate: geom.Intersects,
				ReparseA:  reA,
				ReparseB:  reB,
				Workers:   2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !pairsEqual(got, want) {
				t.Fatalf("cell %v store %v: %d pairs, want %d",
					cellSize, kind, len(got), len(want))
			}
			if st.Candidates < int64(len(want)) {
				t.Errorf("candidates %d < results %d", st.Candidates, len(want))
			}
		}
	}
}

func TestJoinDuplicateElimination(t *testing.T) {
	// Two large overlapping squares straddling many cells: the pair is
	// found in every shared cell and must appear once.
	a := geom.Feature{ID: 1, Offset: 0,
		Geom: geom.Polygon{geom.Ring{{X: 10, Y: 10}, {X: 60, Y: 10}, {X: 60, Y: 60}, {X: 10, Y: 60}, {X: 10, Y: 10}}}}
	b := geom.Feature{ID: 2, Offset: 1_000_000,
		Geom: geom.Polygon{geom.Ring{{X: 30, Y: 30}, {X: 80, Y: 30}, {X: 80, Y: 80}, {X: 30, Y: 80}, {X: 30, Y: 30}}}}
	reA := func(int64) (geom.Geometry, error) { return a.Geom, nil }
	reB := func(int64) (geom.Geometry, error) { return b.Geom, nil }
	sa, sb := buildSets([]geom.Feature{a}, []geom.Feature{b}, 10, partition.ArrayStore)
	got, st, err := Run(sa, sb, Config{Predicate: geom.Intersects, ReparseA: reA, ReparseB: reB})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("pairs = %d, want 1", len(got))
	}
	if st.Duplicates == 0 {
		t.Error("expected duplicates from straddling objects")
	}
}

func TestJoinCacheCountsHits(t *testing.T) {
	as, bs, reA, reB := makeWorld(13, 40, 5)
	sa, sb := buildSets(as, bs, 100, partition.ArrayStore) // one cell
	_, st, err := Run(sa, sb, Config{
		Predicate: geom.Intersects, ReparseA: reA, ReparseB: reB,
	})
	if err != nil {
		t.Fatal(err)
	}
	// With 5 b-objects against 40 a-objects in one cell, the b cache
	// must serve repeats.
	if st.CacheHits == 0 && st.Candidates > 10 {
		t.Errorf("no cache hits over %d candidates", st.Candidates)
	}
}

func TestJoinReparseError(t *testing.T) {
	// Two overlapping squares guarantee a candidate pair.
	a := geom.Feature{ID: 1, Offset: 0,
		Geom: geom.Polygon{geom.Ring{{X: 1, Y: 1}, {X: 5, Y: 1}, {X: 5, Y: 5}, {X: 1, Y: 5}, {X: 1, Y: 1}}}}
	b := geom.Feature{ID: 2, Offset: 1_000_000,
		Geom: geom.Polygon{geom.Ring{{X: 2, Y: 2}, {X: 6, Y: 2}, {X: 6, Y: 6}, {X: 2, Y: 6}, {X: 2, Y: 2}}}}
	sa, sb := buildSets([]geom.Feature{a}, []geom.Feature{b}, 10, partition.ArrayStore)
	bad := func(int64) (geom.Geometry, error) { return nil, fmt.Errorf("boom") }
	good := func(int64) (geom.Geometry, error) { return b.Geom, nil }
	if _, _, err := Run(sa, sb, Config{Predicate: geom.Intersects, ReparseA: bad, ReparseB: good}); err == nil {
		t.Error("reparse error on side A should propagate")
	}
	goodA := func(int64) (geom.Geometry, error) { return a.Geom, nil }
	if _, _, err := Run(sa, sb, Config{Predicate: geom.Intersects, ReparseA: goodA, ReparseB: bad}); err == nil {
		t.Error("reparse error on side B should propagate")
	}
}

func TestJoinEmptySides(t *testing.T) {
	as, _, reA, reB := makeWorld(9, 10, 0)
	sa, sb := buildSets(as, nil, 10, partition.ArrayStore)
	got, _, err := Run(sa, sb, Config{Predicate: geom.Intersects, ReparseA: reA, ReparseB: reB})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("pairs with empty side = %d", len(got))
	}
}

// TestJoinBatchSizes: the cell-batch quantum and the worker count are
// tuning knobs, never correctness knobs — every combination produces the
// oracle pair set, and RunStream emits the very same pair sequence, in
// nondecreasing owning-cell order.
func TestJoinBatchSizes(t *testing.T) {
	as, bs, reA, reB := makeWorld(21, 70, 60)
	want := NestedLoop(as, bs, geom.Intersects)
	sa, sb := buildSets(as, bs, 5, partition.ArrayStore)
	for _, batch := range []int{1, 3, 64, 100000} {
		got, _, err := Run(sa, sb, Config{
			Predicate:  geom.Intersects,
			ReparseA:   reA,
			ReparseB:   reB,
			Workers:    3,
			BatchCells: batch,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !pairsEqual(got, want) {
			t.Fatalf("batch %d: %d pairs, want %d", batch, len(got), len(want))
		}
	}

	key := cellOrder(sa, sb, as, bs)
	var first []Pair
	for _, workers := range []int{1, 2, 4} {
		for _, batch := range []int{1, 3, 64, 100000} {
			var seq []Pair
			if _, err := RunStream(sa, sb, Config{
				Predicate:  geom.Intersects,
				ReparseA:   reA,
				ReparseB:   reB,
				Workers:    workers,
				BatchCells: batch,
			}, func(p Pair) { seq = append(seq, p) }); err != nil {
				t.Fatal(err)
			}
			if first == nil {
				checkCellOrder(t, seq, key)
				first = seq
			} else if !pairsEqual(seq, first) {
				t.Fatalf("workers %d batch %d: a different pair sequence (%d vs %d pairs) — the stream must not depend on either",
					workers, batch, len(seq), len(first))
			}
		}
	}
	if len(first) != len(want) {
		t.Fatalf("stream has %d pairs, want %d", len(first), len(want))
	}
}

// TestJoinRunScopedPool: a sweep without a Handle runs on a pool of
// Config.Workers that lives exactly as long as the sweep — never more
// than that many batches at once, and no goroutine left behind.
func TestJoinRunScopedPool(t *testing.T) {
	as, bs, reA, reB := makeWorld(21, 70, 60)
	sa, sb := buildSets(as, bs, 5, partition.ArrayStore)
	var inflight, maxSeen atomic.Int32
	gauged := func(re Reparser) Reparser {
		return func(off int64) (geom.Geometry, error) {
			n := inflight.Add(1)
			for m := maxSeen.Load(); n > m && !maxSeen.CompareAndSwap(m, n); m = maxSeen.Load() {
			}
			time.Sleep(20 * time.Microsecond) // let batches overlap
			inflight.Add(-1)
			return re(off)
		}
	}
	before := runtime.NumGoroutine()
	want := NestedLoop(as, bs, geom.Intersects)
	var mu sync.Mutex
	got := 0
	_, err := RunStream(sa, sb, Config{
		Predicate: geom.Intersects, ReparseA: gauged(reA), ReparseB: reB,
		Workers: 3, BatchCells: 1,
	}, func(Pair) { mu.Lock(); got++; mu.Unlock() })
	if err != nil {
		t.Fatal(err)
	}
	if got != len(want) {
		t.Fatalf("%d pairs, want %d", got, len(want))
	}
	if m := maxSeen.Load(); m > 3 {
		t.Fatalf("%d batches ran at once on a pool of 3", m)
	}
	// The pool's workers and the registration's watcher exit before
	// RunStream returns; anything above the baseline is a leak.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the sweep, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJoinBlockedConsumerBound: a consumer that blocks on the first pair
// stops the sweep. Beyond the batch being emitted, at most RunCtx's
// in-flight window of 3·workers+4 batches start — and so hold a pair
// buffer — until the consumer returns; then the rest of the sweep runs
// and every pair arrives, in cell order.
func TestJoinBlockedConsumerBound(t *testing.T) {
	const workers = 2
	sa, sb, re := makeCellWorld(20, 20, 2) // one refined pair per cell
	var started atomic.Int32
	pred := func(a, b geom.Geometry) bool {
		started.Add(1) // one refinement per one-cell batch
		return geom.Intersects(a, b)
	}
	release := make(chan struct{})
	var seq []Pair
	done := make(chan error, 1)
	go func() {
		_, err := RunStream(sa, sb, Config{
			Predicate: pred, ReparseA: re, ReparseB: re,
			Workers: workers, BatchCells: 1,
		}, func(p Pair) {
			if len(seq) == 0 {
				<-release
			}
			seq = append(seq, p)
		})
		done <- err
	}()
	// Let the sweep run until the count stops moving.
	for last, stable := int32(-1), 0; stable < 20; time.Sleep(5 * time.Millisecond) {
		if n := started.Load(); n != last {
			last, stable = n, 0
		} else {
			stable++
		}
	}
	if n, bound := started.Load(), int32(1+3*workers+4); n > bound {
		t.Fatalf("%d batches started behind a blocked consumer, want at most %d", n, bound)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(seq) != 20*20 {
		t.Fatalf("%d pairs after the consumer resumed, want %d", len(seq), 20*20)
	}
	for i := 1; i < len(seq); i++ {
		if seq[i].AOff < seq[i-1].AOff { // one pair per cell, cells in offset order
			t.Fatalf("pair %d (offset %d) after offset %d — not in cell order", i, seq[i].AOff, seq[i-1].AOff)
		}
	}
}

// TestJoinOrderedStream: RunStream emits the oracle pair set in the
// sweep's order — owning cell, then A entries in cell order, each with its
// B partners in cell order — and the sequence is identical across runs and
// across both refinements: Predicate and kernel-refined runs all agree.
// Ordering costs no parallelism: several batches still refine at once.
func TestJoinOrderedStream(t *testing.T) {
	for _, w := range []struct {
		name   string
		seed   int64
		cellSz float64
	}{
		{"5° cells", 33, 5},
		// One cell holds every entry: its 80 B boxes fill two hit words.
		{"one cell", 34, 100},
	} {
		as, bs, reA, reB := makeWorld(w.seed, 90, 80)
		sa, sb := buildSets(as, bs, w.cellSz, partition.ArrayStore)
		stream := func(pred func(a, b geom.Geometry) bool, kern bool) []Pair {
			var got []Pair
			_, err := RunStream(sa, sb, Config{
				Predicate:    pred,
				ReparseA:     reA,
				ReparseB:     reB,
				Workers:      4,
				BatchCells:   2,
				KernelRefine: kern,
			}, func(p Pair) { got = append(got, p) })
			if err != nil {
				t.Fatal(err)
			}
			return got
		}
		// A sleepy predicate that records how many refinements overlap.
		var inflight, peak atomic.Int32
		gauged := func(a, b geom.Geometry) bool {
			n := inflight.Add(1)
			for m := peak.Load(); n > m && !peak.CompareAndSwap(m, n); m = peak.Load() {
			}
			defer inflight.Add(-1)
			return sleepyPredicate(100*time.Microsecond)(a, b)
		}
		first := stream(gauged, false)
		if len(first) == 0 {
			t.Fatalf("%s: stream found no pairs; bad test data", w.name)
		}
		if p := peak.Load(); sa.Grid.NumCells() > 1 && p < 2 {
			t.Fatalf("%s: sweep on 4 workers refined at most %d pair at once — it runs one batch at a time", w.name, p)
		}
		checkCellOrder(t, first, cellOrder(sa, sb, as, bs))
		for _, run := range []struct {
			name string
			kern bool
		}{{"scalar", false}, {"scalar again", false}, {"kernel", true}} {
			again := stream(geom.Intersects, run.kern)
			if !pairsEqual(again, first) {
				t.Fatalf("%s: %s run produced a different sequence (%d vs %d pairs) — the stream must be deterministic",
					w.name, run.name, len(again), len(first))
			}
		}

		// The oracle's pair set.
		sorted := append([]Pair(nil), first...)
		sort.Slice(sorted, func(i, j int) bool {
			if sorted[i].AOff != sorted[j].AOff {
				return sorted[i].AOff < sorted[j].AOff
			}
			return sorted[i].BOff < sorted[j].BOff
		})
		if want := NestedLoop(as, bs, geom.Intersects); !pairsEqual(sorted, want) {
			t.Fatalf("%s: stream has %d pairs, the nested loop %d", w.name, len(sorted), len(want))
		}
	}
}

// TestJoinCellWordBoundaries: one cell whose B side holds 63, 64 or 65
// entries — one hit word short, full, and one bit into a second — joins
// to the nested loop's pairs, with either refinement. The first A entry
// covers the whole grid, so every B entry, the last one included, is in a
// pair.
func TestJoinCellWordBoundaries(t *testing.T) {
	sq := func(x, y, s float64) geom.Geometry {
		return geom.Box{MinX: x, MinY: y, MaxX: x + s, MaxY: y + s}.AsPolygon()
	}
	for _, n := range []int{63, 64, 65} {
		geoms := map[int64]geom.Geometry{}
		as := []geom.Feature{{ID: 0, Offset: 0, Geom: sq(0, 0, 100)}, {ID: 1, Offset: 10, Geom: sq(40, 40, 8)}}
		var bs []geom.Feature
		for i := range n {
			bs = append(bs, geom.Feature{ID: int64(100 + i), Offset: 1_000_000 + int64(i)*10,
				Geom: sq(float64(i%8)*12, float64(i/8)*11, 6)})
		}
		for _, f := range append(append([]geom.Feature(nil), as...), bs...) {
			geoms[f.Offset] = f.Geom
		}
		re := func(off int64) (geom.Geometry, error) { return geoms[off], nil }
		sa, sb := buildSets(as, bs, 100, partition.ArrayStore) // one cell
		if got := len(sb.Cell(0)); got != n {
			t.Fatalf("n=%d: the cell holds %d B entries", n, got)
		}
		want := NestedLoop(as, bs, geom.Intersects)
		if len(want) <= n {
			t.Fatalf("n=%d: the nested loop found %d pairs, want more than %d; bad test data", n, len(want), n)
		}
		for _, kern := range []bool{false, true} {
			got, st, err := Run(sa, sb, Config{Predicate: geom.Intersects, ReparseA: re, ReparseB: re, Workers: 1, KernelRefine: kern})
			if err != nil {
				t.Fatal(err)
			}
			if !pairsEqual(got, want) || st.Refined != int64(len(want)) {
				t.Fatalf("n=%d kernel %v: %d pairs (%d refined), the nested loop %d", n, kern, len(got), st.Refined, len(want))
			}
		}
	}
}
