package pipeline

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// grant simulates one freed-worker slot event: it asks the scheduler
// for the next task and runs it inline, returning whether a task was
// grantable. Tests drive the scheduler through this instead of real
// pool workers, so grant sequences are fully deterministic.
func grant(s *sched) bool {
	s.mu.Lock()
	f := s.pickLocked(-1)
	s.mu.Unlock()
	if f == nil {
		return false
	}
	f()
	return true
}

// enqueue adds n tasks to h, each recording h's label into got when a
// worker slot runs it.
func enqueue(t *testing.T, h *PassHandle, n int, got *[]string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if !h.Submit(func() { *got = append(*got, h.Label()) }) {
			t.Fatalf("Submit to %q failed", h.Label())
		}
	}
}

// TestSchedStrideProportionalShare drives the scheduler with synthetic
// slot events: two continuously-backlogged passes with weights 1:3 must
// receive grants in exactly that proportion, FIFO within each pass.
func TestSchedStrideProportionalShare(t *testing.T) {
	s := newSched()
	a := s.register("a", 1, QueryPass, 0)
	b := s.register("b", 3, QueryPass, 0)
	var got []string
	enqueue(t, a, 100, &got)
	enqueue(t, b, 100, &got)

	for i := 0; i < 100; i++ {
		if !grant(s) {
			t.Fatalf("no task grantable at slot %d", i)
		}
	}
	counts := map[string]int{}
	for _, l := range got {
		counts[l]++
	}
	if counts["a"] != 25 || counts["b"] != 75 {
		t.Fatalf("grants = %v, want a:25 b:75", counts)
	}
	// The stride pattern is deterministic: a (vt 0→1), then b three
	// times (0→1/3→2/3→1), ties breaking to the earlier registration.
	want := []string{"a", "b", "b", "b", "a", "b", "b", "b"}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("grant sequence %v, want prefix %v", got[:len(want)], want)
		}
	}
	granted := map[string]uint64{}
	for _, ps := range s.snapshot().Passes {
		granted[ps.Label] = ps.Granted
	}
	if granted["a"] != 25 || granted["b"] != 75 {
		t.Fatalf("label grant counters %v, want a:25 b:75", granted)
	}
}

// TestSchedWorkConserving: a pass with an empty queue is skipped, so a
// low-weight pass alone receives every slot.
func TestSchedWorkConserving(t *testing.T) {
	s := newSched()
	a := s.register("a", 1, QueryPass, 0)
	s.register("idle", 100, QueryPass, 0)
	var got []string
	enqueue(t, a, 10, &got)
	for i := 0; i < 10; i++ {
		if !grant(s) {
			t.Fatalf("slot %d not granted despite backlog", i)
		}
	}
	if len(got) != 10 || grant(s) {
		t.Fatalf("got %d grants, want exactly 10", len(got))
	}
}

// TestSchedActivationNoBurst: a pass that was idle while another ran
// enters at the virtual clock, so it does not monopolise the pool to
// "catch up" on grants it never queued for.
func TestSchedActivationNoBurst(t *testing.T) {
	s := newSched()
	a := s.register("a", 1, QueryPass, 0)
	b := s.register("b", 1, QueryPass, 0)
	var got []string
	enqueue(t, a, 100, &got)
	for i := 0; i < 50; i++ {
		grant(s)
	}
	enqueue(t, b, 10, &got)
	got = got[:0]
	for i := 0; i < 6; i++ {
		grant(s)
	}
	counts := map[string]int{}
	for _, l := range got {
		counts[l]++
	}
	if counts["a"] != 3 || counts["b"] != 3 {
		t.Fatalf("post-activation grants = %v (%v), want alternating 3:3", counts, got)
	}
}

// TestSchedSameLabelAggregates: two passes sharing a label report as
// one snapshot entry with summed queues and pass count.
func TestSchedSameLabelAggregates(t *testing.T) {
	s := newSched()
	h1 := s.register("t", 4, QueryPass, 0)
	h2 := s.register("t", 4, QueryPass, 0)
	var got []string
	enqueue(t, h1, 3, &got)
	enqueue(t, h2, 2, &got)
	snap := s.snapshot()
	if len(snap.Passes) != 1 {
		t.Fatalf("snapshot entries = %d, want 1", len(snap.Passes))
	}
	p := snap.Passes[0]
	if p.Label != "t" || p.Passes != 2 || p.Queued != 5 || p.Weight != 4 {
		t.Fatalf("aggregated entry = %+v", p)
	}
	h1.Close()
	if got := s.snapshot().Passes[0].Passes; got != 1 {
		t.Fatalf("passes after one close = %d, want 1", got)
	}
	h2.Close()
	if n := len(s.snapshot().Passes); n != 0 {
		t.Fatalf("snapshot entries after close = %d, want 0 (label not pruned)", n)
	}
}

// TestSchedCloseDrainsQueue: closing a handle with queued tasks runs
// them inline (each block's ready channel must always close) and
// deregisters the pass.
func TestSchedCloseDrainsQueue(t *testing.T) {
	s := newSched()
	h := s.register("x", 2, QueryPass, 0)
	ran := 0
	for i := 0; i < 4; i++ {
		h.Submit(func() { ran++ })
	}
	h.Close()
	if ran != 4 {
		t.Fatalf("leftover tasks run on Close = %d, want 4", ran)
	}
	if h.Submit(func() {}) {
		t.Fatal("Submit after Close accepted")
	}
	if n := len(s.snapshot().Passes); n != 0 {
		t.Fatalf("pass still registered after Close (%d entries)", n)
	}
}

// TestPoolWeightedConvergence is the end-to-end fairness check: two
// concurrent pipeline runs on one shared pool with weights 1:3 must
// receive worker grants within ±10% of the 1:3 ratio while both are
// backlogged. Run under -race in CI.
func TestPoolWeightedConvergence(t *testing.T) {
	const (
		workers     = 2
		blockSize   = 2048
		heavyBlocks = 512
		// The light pass gets far more input than the contention window
		// needs, so it cannot run dry (and skew the ratio through work
		// conservation) before the heavy pass completes.
		lightBlocks = 4 * heavyBlocks
	)
	pool := NewPool(workers)
	defer pool.Close()
	lightIn := bytes.Repeat([]byte{1}, blockSize*lightBlocks)
	heavyIn := bytes.Repeat([]byte{1}, blockSize*heavyBlocks)

	// Each block "processes" by sleeping: slow enough that the
	// splitters keep both per-pass queues continuously backlogged (the
	// scheduler's steady-state regime — an empty queue would hand the
	// other pass extra work-conserving grants), and sleeping rather
	// than spinning so the dispatcher goroutines are never starved of
	// CPU on a single-core host.
	work := func(in []byte, b Block) int64 {
		time.Sleep(200 * time.Microsecond)
		return b.End - b.Start
	}

	var lightCount atomic.Int64
	var lightAtHeavyStart, lightAtHeavyDone atomic.Int64
	var heavyFirst sync.Once
	var wg sync.WaitGroup
	wg.Add(2)
	errs := make([]error, 2)
	lightCtx, stopLight := context.WithCancel(context.Background())
	defer stopLight()
	go func() { // weight-1 pass
		defer wg.Done()
		_, err := runOn(lightCtx, lightIn, FixedSplitter{BlockSize: blockSize}.Cuts,
			pool, "light", 1,
			func(b Block) int64 {
				lightCount.Add(1)
				return work(lightIn, b)
			},
			func(b Block, r int64) {},
		)
		if err != nil && lightCtx.Err() == nil {
			errs[0] = err
		}
	}()

	// Only start the heavy pass once the light pass is registered and
	// actively dispatching: on a single-CPU host the heavy run could
	// otherwise complete before the light run's goroutines ever get
	// scheduled, measuring startup order instead of scheduling policy.
	for deadline := time.Now().Add(10 * time.Second); ; {
		if lightCount.Load() >= 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("light pass never started dispatching")
		}
		time.Sleep(100 * time.Microsecond)
	}

	go func() { // weight-3 pass
		defer wg.Done()
		_, errs[1] = runOn(context.Background(), heavyIn, FixedSplitter{BlockSize: blockSize}.Cuts,
			pool, "heavy", 3,
			func(b Block) int64 {
				// The contention window opens at the heavy pass's first
				// grant; the light pass's progress before that is a solo
				// warm-up and is subtracted out.
				heavyFirst.Do(func() { lightAtHeavyStart.Store(lightCount.Load()) })
				return work(heavyIn, b)
			},
			func(b Block, r int64) {},
		)
		// ...and closes the moment the heavy pass finishes: past this
		// point the light pass inherits the whole pool (work
		// conservation) and the ratio would drift back toward 1:1.
		lightAtHeavyDone.Store(lightCount.Load())
		stopLight() // the light pass's remaining surplus input is irrelevant
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}

	light := lightAtHeavyDone.Load() - lightAtHeavyStart.Load()
	// While both passes were backlogged the heavy pass got 3× the
	// grants, so over its 512 blocks the light pass should advance by
	// ~512/3 ≈ 171. Accept ±10% around the 1:3 ratio.
	ratio := float64(heavyBlocks) / float64(light)
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("heavy:light grant ratio = %.2f (light advanced %d during heavy's %d), want 3.0 ±10%%",
			ratio, light, heavyBlocks)
	}
}

// TestPoolSolePassWorkConserving: a single registered pass must be able
// to occupy every pool worker simultaneously — weights shape shares
// only between contending passes, never cap a lone pass.
func TestPoolSolePassWorkConserving(t *testing.T) {
	const workers = 3
	pool := NewPool(workers)
	defer pool.Close()
	input := make([]byte, 64*16)

	var inflight, maxSeen atomic.Int32
	allBusy := make(chan struct{})
	var once sync.Once
	// Watchdog: if the scheduler never engages all workers, release the
	// waiters so the run ends and the assertion below reports it.
	timeout := time.AfterFunc(10*time.Second, func() { once.Do(func() { close(allBusy) }) })
	defer timeout.Stop()

	_, err := runOn(context.Background(), input, FixedSplitter{BlockSize: 64}.Cuts,
		pool, "solo", 1,
		func(b Block) int {
			n := inflight.Add(1)
			for {
				m := maxSeen.Load()
				if n <= m || maxSeen.CompareAndSwap(m, n) {
					break
				}
			}
			if n == workers {
				once.Do(func() { close(allBusy) })
			}
			<-allBusy
			inflight.Add(-1)
			return 0
		},
		func(b Block, r int) {},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxSeen.Load(); got != workers {
		t.Fatalf("sole pass reached %d concurrent workers, want all %d", got, workers)
	}
}

// TestPoolCancelDeregisters is the admission/pipeline interaction
// check: a pass cancelled mid-dispatch must deregister from the
// scheduler (returning its whole deficit), leak no goroutines, release
// every worker slot, and leave the pool fully usable.
func TestPoolCancelDeregisters(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	settle := func(cond func() bool) bool {
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
			if cond() {
				return true
			}
			time.Sleep(time.Millisecond)
		}
		return cond()
	}
	before := runtime.NumGoroutine()

	input := make([]byte, 1<<20)
	ctx, cancel := context.WithCancel(context.Background())
	var yields atomic.Int32
	splitter := func(n int64, yield func(int64) bool) {
		for c := int64(1024); c < n; c += 1024 {
			if yields.Add(1) == 8 {
				cancel()
			}
			if !yield(c) {
				return
			}
		}
	}
	_, err := runOn(ctx, input, splitter, pool, "doomed", 7,
		func(b Block) int { return b.Index },
		func(b Block, r int) {},
	)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}

	if snap := pool.SchedSnapshot(); len(snap.Passes) != 0 {
		t.Fatalf("cancelled pass still registered: %+v", snap.Passes)
	}
	if !settle(func() bool { return pool.Busy() == 0 }) {
		t.Fatalf("worker slots leaked: busy = %d after cancellation", pool.Busy())
	}
	if !settle(func() bool { return runtime.NumGoroutine() <= before+2 }) {
		t.Fatalf("goroutines leaked: %d before cancel, %d after", before, runtime.NumGoroutine())
	}

	// The pool must be fully usable afterwards: a complete run over the
	// same pool sums every byte.
	data := bytes.Repeat([]byte{1}, 50000)
	var total int64
	_, err = runOn(context.Background(), data, FixedSplitter{BlockSize: 997}.Cuts,
		pool, "after", 1,
		func(b Block) int64 {
			var s int64
			for _, v := range data[b.Start:b.End] {
				s += int64(v)
			}
			return s
		},
		func(b Block, r int64) { total += r },
	)
	if err != nil || total != 50000 {
		t.Fatalf("post-cancel run: total = %d, err = %v", total, err)
	}
	if snap := pool.SchedSnapshot(); snap.TotalGranted == 0 || len(snap.Passes) != 0 {
		t.Fatalf("scheduler snapshot after runs = %+v", snap)
	}
}

// TestPoolCancelUnblocksWithoutWorkers: a cancelled run must wind down
// even when every pool worker is held indefinitely by another pass's
// long-lived tasks — its queued blocks are reclaimed inline (Drain)
// instead of waiting for worker grants that may never come.
func TestPoolCancelUnblocksWithoutWorkers(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	release := make(chan struct{})
	hold := pool.Register(context.Background(), "hog", 1, QueryPass, 0)
	defer hold.Close()
	defer close(release) // unblock the hogs before the deferred closes
	for i := 0; i < 2; i++ {
		if !hold.Submit(func() { <-release }) {
			t.Fatal("hog Submit failed")
		}
	}
	for deadline := time.Now().Add(5 * time.Second); pool.Busy() < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("hog tasks never occupied the workers (busy=%d)", pool.Busy())
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := runOn(ctx, make([]byte, 64*1024), FixedSplitter{BlockSize: 64}.Cuts,
			pool, "victim", 1,
			func(b Block) int { return 0 },
			func(Block, int) {},
		)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the victim queue some blocks
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled run returned nil error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled run did not return while all workers were held by another pass")
	}
	snap := pool.SchedSnapshot()
	if len(snap.Passes) != 1 || snap.Passes[0].Label != "hog" {
		t.Fatalf("registered passes after cancel = %+v, want only the hog", snap.Passes)
	}
}

// TestPoolClosedMidRunFailsLoudly: closing the pool under a live run is
// a contract violation, and the run must report it as an error instead
// of folding a silently truncated result (the pre-scheduler pool
// panicked on a closed channel here).
func TestPoolClosedMidRunFailsLoudly(t *testing.T) {
	pool := NewPool(1)
	gate := make(chan struct{})
	splitter := func(n int64, yield func(int64) bool) {
		yield(64)
		<-gate // hold the splitter until the pool has been closed
		yield(128)
		yield(192)
	}
	done := make(chan error, 1)
	go func() {
		_, err := runOn(context.Background(), make([]byte, 256), splitter,
			pool, "late", 1,
			func(b Block) int { return 0 },
			func(Block, int) {},
		)
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); pool.SchedSnapshot().TotalGranted == 0; {
		if time.Now().After(deadline) {
			t.Fatal("first block never granted")
		}
		time.Sleep(time.Millisecond)
	}
	pool.Close()
	close(gate)
	select {
	case err := <-done:
		if !errors.Is(err, ErrPoolClosed) {
			t.Fatalf("run on closed pool returned %v, want ErrPoolClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run never returned after pool close")
	}
}

// TestRegistrationCancelNotPoolClosed registers a pass under one context
// and runs it under another: when the registration context is cancelled
// mid-run, the watcher drains the pass and refuses the run's next Submit
// while the run's own context is still live. The run must fail with the
// registration context's cause, not ErrPoolClosed — the pool is open.
func TestRegistrationCancelNotPoolClosed(t *testing.T) {
	pool := NewPool(1)
	defer pool.Close()
	regCtx, cancelReg := context.WithCancel(context.Background())
	h := pool.Register(regCtx, "reg", 1, QueryPass, 0)
	defer h.Close()
	gate := make(chan struct{})
	splitter := func(n int64, yield func(int64) bool) {
		yield(64)
		<-gate // hold the splitter until the watcher has drained the pass
		yield(128)
		yield(192)
	}
	done := make(chan error, 1)
	go func() {
		_, err := RunCtx(context.Background(), 256, splitter, h,
			func(b Block) int { return 0 },
			func(Block, int) {},
		)
		done <- err
	}()
	cancelReg()
	for deadline := time.Now().Add(5 * time.Second); ; {
		pool.s.mu.Lock()
		drained := h.draining
		pool.s.mu.Unlock()
		if drained {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the watcher never drained the pass")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) || errors.Is(err, ErrPoolClosed) {
			t.Fatalf("run returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run never returned")
	}
}

// TestSchedRecentWindowDecay drives the recent-grant window with an
// injected clock: grants older than the share window must stop counting
// toward RecentGranted (and therefore worker_share), while the
// since-activation Granted counter keeps the lifetime view.
func TestSchedRecentWindowDecay(t *testing.T) {
	s := newSched()
	var clock int64
	s.now = func() int64 { return clock }
	a := s.register("a", 1, QueryPass, 0)
	b := s.register("b", 1, QueryPass, 0)
	var got []string

	// t=0: tenant a bursts 40 grants.
	enqueue(t, a, 40, &got)
	for i := 0; i < 40; i++ {
		grant(s)
	}
	snap := s.snapshot()
	if snap.Passes[0].RecentGranted != 40 || snap.Passes[0].Granted != 40 {
		t.Fatalf("fresh burst: %+v", snap.Passes[0])
	}

	// Far past the window: only b is active now.
	clock = shareWindowSecs * 3
	enqueue(t, b, 10, &got)
	for i := 0; i < 10; i++ {
		grant(s)
	}
	snap = s.snapshot()
	var pa, pb PassStats
	for _, p := range snap.Passes {
		switch p.Label {
		case "a":
			pa = p
		case "b":
			pb = p
		}
	}
	if pa.Granted != 40 {
		t.Fatalf("lifetime counter decayed: %+v", pa)
	}
	if pa.RecentGranted != 0 {
		t.Fatalf("a's ancient burst still counts as recent: %+v", pa)
	}
	if pb.RecentGranted != 10 {
		t.Fatalf("b's fresh grants = %d, want 10", pb.RecentGranted)
	}

	// Within the window, grants across adjacent seconds accumulate.
	clock++
	enqueue(t, b, 5, &got)
	for i := 0; i < 5; i++ {
		grant(s)
	}
	if rg := s.snapshot(); func() uint64 {
		for _, p := range rg.Passes {
			if p.Label == "b" {
				return p.RecentGranted
			}
		}
		return 0
	}() != 15 {
		t.Fatalf("adjacent-second grants did not accumulate: %+v", s.snapshot().Passes)
	}
}

// TestSchedJoinBatchCounters: join-kind passes account their queued and
// granted tasks separately as cell batches, alongside the combined
// totals.
func TestSchedJoinBatchCounters(t *testing.T) {
	s := newSched()
	q := s.register("t", 2, QueryPass, 0)
	j := s.register("t", 2, JoinPass, 0)
	var got []string
	enqueue(t, q, 4, &got)
	enqueue(t, j, 6, &got)

	snap := s.snapshot()
	if len(snap.Passes) != 1 {
		t.Fatalf("labels = %d, want 1", len(snap.Passes))
	}
	p := snap.Passes[0]
	if p.Passes != 2 || p.JoinPasses != 1 {
		t.Fatalf("pass counts = %+v", p)
	}
	if p.Queued != 10 || p.QueuedBatches != 6 {
		t.Fatalf("queued = %d batches = %d, want 10/6", p.Queued, p.QueuedBatches)
	}

	for i := 0; i < 10; i++ {
		grant(s)
	}
	snap = s.snapshot()
	p = snap.Passes[0]
	if p.Granted != 10 || p.GrantedBatches != 6 {
		t.Fatalf("granted = %d batches = %d, want 10/6", p.Granted, p.GrantedBatches)
	}
	if snap.TotalGranted != 10 || snap.TotalGrantedBatches != 6 {
		t.Fatalf("totals = %d/%d, want 10/6", snap.TotalGranted, snap.TotalGrantedBatches)
	}
}

// TestSchedLocalityTieBreak drives two equal-weight passes over
// distinct source mappings with worker-attributed grants: at exactly
// equal virtual times the scheduler must keep each worker on the
// mapping of its previous grant, and the hit/miss counters must
// account every grant of a keyed pass.
func TestSchedLocalityTieBreak(t *testing.T) {
	s := newSched()
	a := s.register("a", 1, QueryPass, 100)
	b := s.register("b", 1, QueryPass, 200)
	var got []string
	enqueue(t, a, 4, &got)
	enqueue(t, b, 4, &got)

	// Worker 0 takes a grant first: registration order breaks the fresh
	// tie toward pass a, and the worker's lastSrc becomes a's mapping.
	workerGrant := func(worker int) {
		s.mu.Lock()
		f := s.pickLocked(worker)
		s.mu.Unlock()
		if f == nil {
			t.Fatalf("no task grantable")
		}
		f()
	}
	workerGrant(0)
	// Worker 1's first grant must go to b (strictly smaller vtime now).
	workerGrant(1)
	// From here vtimes tie exactly after every grant pair; each worker
	// must stay on its own mapping.
	workerGrant(0)
	workerGrant(1)
	workerGrant(0)
	workerGrant(1)
	want := []string{"a", "b", "a", "b", "a", "b"}
	for i, l := range want {
		if got[i] != l {
			t.Fatalf("grant %d went to %q, want %q (full order %v)", i, got[i], l, got)
		}
	}

	snap := s.snapshot()
	// First grant of each worker has no previous mapping → miss; the
	// four locality-held grants are hits.
	if snap.LocalityHits != 4 || snap.LocalityMisses != 2 {
		t.Fatalf("locality hits/misses = %d/%d, want 4/2", snap.LocalityHits, snap.LocalityMisses)
	}
}

// TestSchedLocalityNeverOverridesFairness: the tie-break must not
// prefer a warm mapping over a strictly smaller virtual time, and
// passes without a source key (src 0) must never count as matches.
func TestSchedLocalityNeverOverridesFairness(t *testing.T) {
	s := newSched()
	a := s.register("a", 1, QueryPass, 100)
	b := s.register("b", 9, QueryPass, 200)
	var got []string
	enqueue(t, a, 2, &got)
	enqueue(t, b, 18, &got)

	for i := 0; i < 20; i++ {
		s.mu.Lock()
		f := s.pickLocked(0)
		s.mu.Unlock()
		if f == nil {
			t.Fatalf("no task grantable at %d", i)
		}
		f()
	}
	counts := map[string]int{}
	for _, l := range got {
		counts[l]++
	}
	// Weighted shares hold exactly despite worker 0 sticking to one
	// mapping whenever ties allow.
	if counts["a"] != 2 || counts["b"] != 18 {
		t.Fatalf("shares = %v, want a:2 b:18", counts)
	}

	s2 := newSched()
	u := s2.register("u", 1, QueryPass, 0)
	v := s2.register("v", 1, QueryPass, 0)
	var got2 []string
	enqueue(t, u, 2, &got2)
	enqueue(t, v, 2, &got2)
	for i := 0; i < 4; i++ {
		s2.mu.Lock()
		f := s2.pickLocked(0)
		s2.mu.Unlock()
		f()
	}
	snap := s2.snapshot()
	if snap.LocalityHits != 0 || snap.LocalityMisses != 0 {
		t.Fatalf("keyless passes counted: hits/misses = %d/%d, want 0/0",
			snap.LocalityHits, snap.LocalityMisses)
	}
	// Keyless ties keep the historical registration-order determinism.
	want := []string{"u", "v", "u", "v"}
	for i, l := range want {
		if got2[i] != l {
			t.Fatalf("keyless grant %d went to %q, want %q", i, got2[i], l)
		}
	}
}
