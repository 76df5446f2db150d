package atgis

// Chaos tests: deterministic fault injection (internal/faultinject)
// driving the fault-containment guarantees end to end. Each test arms a
// hook at an instrumented site, poisons one tenant's passes, and
// asserts the blast radius: the poisoned pass fails with a typed error
// while the pool, the engine and every concurrent tenant keep working,
// and no goroutines, scheduler entries or admission slots leak.
//
// The faultinject registry is process-global, so these tests never run
// in parallel with each other (no t.Parallel) and always disarm via
// t.Cleanup(faultinject.Reset).

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atgis/internal/faultinject"
	"atgis/internal/geom"
	"atgis/internal/join"
	"atgis/internal/query"
)

// chaosEngine builds a pooled engine with admission control, closed at
// test end.
func chaosEngine(t *testing.T) *Engine {
	t.Helper()
	eng := NewEngine(EngineConfig{Workers: 4, MaxInFlight: 4, TenantQueue: 8})
	t.Cleanup(func() { eng.Close() })
	return eng
}

// waitDrained polls until the engine shows no residual work: zero busy
// workers, no registered scheduler passes, no held admission slots.
func waitDrained(t *testing.T, eng *Engine) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := eng.Stats()
		ok := st.Pool.Busy == 0
		if st.Scheduler != nil && len(st.Scheduler.Tenants) != 0 {
			ok = false
		}
		if st.Admission != nil && (st.Admission.InFlight != 0 || st.Admission.QueuedTotal != 0) {
			ok = false
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("engine did not drain: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosPanicConfinedToTenant poisons one tenant's block processing
// with an injected panic and proves the failure is confined: the
// poisoned query returns *PassPanicError, a concurrent healthy tenant's
// identical query completes with the correct result, and the pool
// serves the poisoned tenant again once the hook is disarmed.
func TestChaosPanicConfinedToTenant(t *testing.T) {
	ds := genDataset(t, GeoJSON, 2000)
	eng := chaosEngine(t)
	opt := Options{BlockSize: 8 << 10}

	want, err := testEngine(t, 0).Query(context.Background(), ds, aggSpec(), opt)
	if err != nil {
		t.Fatal(err)
	}

	t.Cleanup(faultinject.Reset)
	faultinject.Set("pipeline.block", func(label string, index int64) {
		if label == "poison" {
			panic(fmt.Sprintf("chaos: injected block fault (block %d)", index))
		}
	})

	var wg sync.WaitGroup
	var poisonErr, healthyErr error
	var healthyRes *Result
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, poisonErr = eng.Query(WithTenant(context.Background(), "poison"), ds, aggSpec(), opt)
	}()
	go func() {
		defer wg.Done()
		healthyRes, healthyErr = eng.Query(WithTenant(context.Background(), "healthy"), ds, aggSpec(), opt)
	}()
	wg.Wait()

	var pp *PassPanicError
	if !errors.As(poisonErr, &pp) {
		t.Fatalf("poisoned query: %v, want *PassPanicError", poisonErr)
	}
	if pp.Label != "poison" || pp.Site != "block" {
		t.Fatalf("panic error = label %q site %q, want poison/block", pp.Label, pp.Site)
	}
	if len(pp.Stack) == 0 {
		t.Fatal("panic error carries no stack")
	}
	if healthyErr != nil {
		t.Fatalf("healthy tenant failed alongside poisoned one: %v", healthyErr)
	}
	if healthyRes.Res.Count != want.Res.Count || healthyRes.Res.SumArea != want.Res.SumArea {
		t.Fatalf("healthy result %+v diverged from baseline %+v", healthyRes.Res, want.Res)
	}
	waitDrained(t, eng)

	// Disarm: the same tenant is served again — the pool survived.
	faultinject.Reset()
	res, err := eng.Query(WithTenant(context.Background(), "poison"), ds, aggSpec(), opt)
	if err != nil {
		t.Fatalf("query after recovery: %v", err)
	}
	if res.Res.Count != want.Res.Count {
		t.Fatalf("post-recovery count = %d, want %d", res.Res.Count, want.Res.Count)
	}
	waitDrained(t, eng)
}

// TestChaosSimulatedSourceFault injects the simulated mmap fault and
// checks it surfaces as ErrSourceFault / *SourceFaultError, exactly
// like a real SIGBUS would.
func TestChaosSimulatedSourceFault(t *testing.T) {
	ds := genDataset(t, GeoJSON, 500)
	eng := chaosEngine(t)

	t.Cleanup(faultinject.Reset)
	faultinject.Set("pipeline.block", func(label string, index int64) {
		panic(faultinject.SimulatedFault{Site: "pipeline.block"})
	})

	_, err := eng.Query(WithTenant(context.Background(), "a"), ds, aggSpec(), Options{BlockSize: 8 << 10})
	if !errors.Is(err, ErrSourceFault) {
		t.Fatalf("err = %v, want ErrSourceFault", err)
	}
	var sf *SourceFaultError
	if !errors.As(err, &sf) {
		t.Fatalf("err = %v, want *SourceFaultError", err)
	}
	if sf.Site != "block" {
		t.Fatalf("fault site = %q, want block", sf.Site)
	}
	waitDrained(t, eng)
}

// TestChaosTruncatedMmap truncates a memory-mapped source file under a
// running engine and checks the real SIGBUS surfaces as ErrSourceFault
// for that pass only, while a healthy source registered on the same
// engine keeps serving.
func TestChaosTruncatedMmap(t *testing.T) {
	if runtime.GOOS != "linux" && runtime.GOOS != "darwin" {
		t.Skip("real mmap fault semantics require a unix mmap")
	}
	eng := chaosEngine(t)

	// A file several pages long, truncated to under one page: any read
	// past the first page faults.
	path := writeTempGeoJSON(t, 5000)
	doomed, err := OpenMapped(path, AutoDetect)
	if err != nil {
		t.Fatal(err)
	}
	defer doomed.Close()
	if len(doomed.Bytes()) < 1<<16 {
		t.Fatalf("test file too small to straddle pages: %d bytes", len(doomed.Bytes()))
	}
	healthy := genDataset(t, GeoJSON, 2000)

	if err := os.Truncate(path, 512); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var doomedErr, healthyErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, doomedErr = eng.Query(WithTenant(context.Background(), "doomed"), doomed, aggSpec(), Options{BlockSize: 16 << 10})
	}()
	go func() {
		defer wg.Done()
		_, healthyErr = eng.Query(WithTenant(context.Background(), "healthy"), healthy, aggSpec(), Options{BlockSize: 16 << 10})
	}()
	wg.Wait()

	if !errors.Is(doomedErr, ErrSourceFault) {
		t.Fatalf("truncated source: %v, want ErrSourceFault", doomedErr)
	}
	var sf *SourceFaultError
	if !errors.As(doomedErr, &sf) {
		t.Fatalf("truncated source: %v, want *SourceFaultError", doomedErr)
	}
	if sf.Addr == 0 {
		t.Fatal("real fault should carry the faulting address")
	}
	if healthyErr != nil {
		t.Fatalf("healthy source failed alongside the truncated one: %v", healthyErr)
	}
	waitDrained(t, eng)

	// The engine still serves after absorbing a SIGBUS.
	if _, err := eng.Query(context.Background(), healthy, aggSpec(), Options{}); err != nil {
		t.Fatalf("query after fault: %v", err)
	}
}

// TestChaosTimeoutTerminatesPass bounds a query whose every block is
// artificially slow and checks the deadline actually terminates the
// pass — within twice the budget — with context.DeadlineExceeded.
func TestChaosTimeoutTerminatesPass(t *testing.T) {
	ds := genDataset(t, GeoJSON, 4000)
	eng := chaosEngine(t)

	t.Cleanup(faultinject.Reset)
	faultinject.Set("pipeline.block", func(label string, index int64) {
		time.Sleep(30 * time.Millisecond)
	})

	const budget = 250 * time.Millisecond
	ctx, cancel := context.WithTimeout(WithTenant(context.Background(), "slow"), budget)
	defer cancel()
	start := time.Now()
	_, err := eng.Query(ctx, ds, aggSpec(), Options{BlockSize: 4 << 10})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed > 2*budget {
		t.Fatalf("pass outlived its deadline: ran %v on a %v budget", elapsed, budget)
	}
	waitDrained(t, eng)
}

// TestChaosJoinBatchPanic poisons one tenant's join sweep and checks
// the cell-batch panic fails only that join while a concurrent healthy
// tenant's identical join completes.
func TestChaosJoinBatchPanic(t *testing.T) {
	ds := genDataset(t, GeoJSON, 1500)
	eng := chaosEngine(t)
	spec := JoinSpec{Mask: parityMask, CellSize: 2}

	t.Cleanup(faultinject.Reset)
	faultinject.Set("join.batch", func(label string, index int64) {
		if label == "poison" {
			panic("chaos: injected join fault")
		}
	})

	var wg sync.WaitGroup
	var poisonErr, healthyErr error
	var healthyPairs int
	wg.Add(2)
	go func() {
		defer wg.Done()
		pairs := eng.JoinStream(WithTenant(context.Background(), "poison"), ds, spec, Options{})
		for pairs.Next() {
		}
		_, poisonErr = pairs.Summary()
	}()
	go func() {
		defer wg.Done()
		pairs := eng.JoinStream(WithTenant(context.Background(), "healthy"), ds, spec, Options{})
		for pairs.Next() {
			healthyPairs++
		}
		_, healthyErr = pairs.Summary()
	}()
	wg.Wait()

	var pp *PassPanicError
	if !errors.As(poisonErr, &pp) {
		t.Fatalf("poisoned join: %v, want *PassPanicError", poisonErr)
	}
	if pp.Site != "join-batch" {
		t.Fatalf("panic site = %q, want join-batch", pp.Site)
	}
	if healthyErr != nil {
		t.Fatalf("healthy join failed alongside poisoned one: %v", healthyErr)
	}
	if healthyPairs == 0 {
		t.Fatal("healthy join streamed no pairs")
	}
	waitDrained(t, eng)
}

// TestChaosKernelBatchPanic poisons the batched-refinement kernel site
// (fired only by kernel-refined sweeps) of one tenant's join: the panic
// must fail only that join — contained as the owning cell-batch pass's
// panic — while a concurrent healthy tenant's identical join completes.
// It also proves the default-predicate join actually takes the kernel
// path: the site must fire at all.
func TestChaosKernelBatchPanic(t *testing.T) {
	ds := genDataset(t, GeoJSON, 1500)
	eng := chaosEngine(t)
	spec := JoinSpec{Mask: parityMask, CellSize: 2}

	t.Cleanup(faultinject.Reset)
	var fired atomic.Bool
	faultinject.Set("kernel.batch", func(label string, index int64) {
		fired.Store(true)
		if label == "poison" {
			panic("chaos: injected kernel fault")
		}
	})

	var wg sync.WaitGroup
	var poisonErr, healthyErr error
	var healthyPairs int
	wg.Add(2)
	go func() {
		defer wg.Done()
		pairs := eng.JoinStream(WithTenant(context.Background(), "poison"), ds, spec, Options{})
		for pairs.Next() {
		}
		_, poisonErr = pairs.Summary()
	}()
	go func() {
		defer wg.Done()
		pairs := eng.JoinStream(WithTenant(context.Background(), "healthy"), ds, spec, Options{})
		for pairs.Next() {
			healthyPairs++
		}
		_, healthyErr = pairs.Summary()
	}()
	wg.Wait()

	if !fired.Load() {
		t.Fatal("kernel.batch never fired: default-predicate joins should run kernel-refined")
	}
	var pp *PassPanicError
	if !errors.As(poisonErr, &pp) {
		t.Fatalf("poisoned join: %v, want *PassPanicError", poisonErr)
	}
	if pp.Site != "join-batch" {
		t.Fatalf("panic site = %q, want join-batch", pp.Site)
	}
	if healthyErr != nil {
		t.Fatalf("healthy join failed alongside poisoned one: %v", healthyErr)
	}
	if healthyPairs == 0 {
		t.Fatal("healthy join streamed no pairs")
	}
	waitDrained(t, eng)
}

// parityMask is the even/odd self-join split used across join tests.
func parityMask(f *geom.Feature) uint8 {
	if f.ID%2 == 0 {
		return query.SideA
	}
	return query.SideB
}

// TestChaosNoLeaks runs every fault scenario back to back — injected
// panic, simulated source fault, deadline expiry, mid-stream abandon —
// and asserts nothing leaks: goroutines return to baseline, no worker
// stays busy, no scheduler pass stays registered, no admission slot
// stays held.
func TestChaosNoLeaks(t *testing.T) {
	ds := genDataset(t, GeoJSON, 2000)
	eng := chaosEngine(t)

	// Warm the engine so its steady-state goroutines (pool workers) are
	// part of the baseline.
	if _, err := eng.Query(context.Background(), ds, aggSpec(), Options{}); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, eng)
	baseline := runtime.NumGoroutine()

	t.Cleanup(faultinject.Reset)
	for i := 0; i < 3; i++ {
		// Injected panic.
		faultinject.Set("pipeline.block", func(label string, index int64) {
			if label == "poison" {
				panic("chaos: leak-test panic")
			}
		})
		if _, err := eng.Query(WithTenant(context.Background(), "poison"), ds, aggSpec(), Options{BlockSize: 8 << 10}); err == nil {
			t.Fatal("poisoned query succeeded")
		}

		// Simulated source fault.
		faultinject.Set("pipeline.block", func(label string, index int64) {
			if label == "poison" {
				panic(faultinject.SimulatedFault{Site: "pipeline.block"})
			}
		})
		if _, err := eng.Query(WithTenant(context.Background(), "poison"), ds, aggSpec(), Options{BlockSize: 8 << 10}); err == nil {
			t.Fatal("faulted query succeeded")
		}

		// Deadline expiry mid-pass.
		faultinject.Set("pipeline.block", func(label string, index int64) {
			time.Sleep(10 * time.Millisecond)
		})
		ctx, cancel := context.WithTimeout(WithTenant(context.Background(), "slow"), 50*time.Millisecond)
		if _, err := eng.Query(ctx, ds, aggSpec(), Options{BlockSize: 4 << 10}); err == nil {
			t.Fatal("deadline-bounded query succeeded")
		}
		cancel()
		faultinject.Reset()

		// Mid-stream abandon: consume a few records, then Close.
		spec := &query.Spec{Kind: query.Containment, Ref: aggSpec().Ref, Pred: query.PredIntersects, Dist: geom.Haversine}
		pq, err := eng.Prepare(spec, Options{BlockSize: 8 << 10})
		if err != nil {
			t.Fatal(err)
		}
		res := pq.Stream(WithTenant(context.Background(), "dropper"), ds)
		for j := 0; j < 5 && res.Next(); j++ {
		}
		res.Close()
	}

	waitDrained(t, eng)
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // collect finished producer goroutines' stacks promptly
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d, baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestOrderedJoinRecyclesDeterministically checks the ordered-stream
// pair-buffer recycling: two ordered runs emit the identical pair
// sequence (determinism is the point of OrderWindow — recycled buffers
// must never surface stale pairs), and the sequence matches the
// buffered join's pair set.
func TestOrderedJoinRecyclesDeterministically(t *testing.T) {
	ds := genDataset(t, GeoJSON, 1200)
	eng := chaosEngine(t)
	spec := JoinSpec{Mask: parityMask, CellSize: 2, OrderWindow: 8}

	collect := func() []join.Pair {
		var got []join.Pair
		pairs := eng.JoinStream(WithTenant(context.Background(), "ordered"), ds, spec, Options{})
		for pairs.Next() {
			got = append(got, pairs.Pair())
		}
		if _, err := pairs.Summary(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	first := collect()
	second := collect()
	if len(first) == 0 {
		t.Fatal("ordered join streamed no pairs")
	}
	if len(first) != len(second) {
		t.Fatalf("run lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("pair %d differs across ordered runs: %+v vs %+v", i, first[i], second[i])
		}
	}

	// Set equality against the buffered (globally deduplicated) join.
	bufSpec := spec
	bufSpec.OrderWindow = 0
	buffered, err := eng.Join(context.Background(), ds, bufSpec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[join.Pair]bool, len(buffered.Pairs))
	for _, p := range buffered.Pairs {
		want[p] = true
	}
	if len(first) != len(want) {
		t.Fatalf("ordered stream emitted %d pairs, buffered join %d", len(first), len(want))
	}
	for _, p := range first {
		if !want[p] {
			t.Fatalf("ordered stream emitted pair %+v absent from buffered join", p)
		}
	}
}
