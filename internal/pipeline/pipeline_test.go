package pipeline

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// cutFunc is what RunCtx takes to stream a run's block boundaries.
type cutFunc = func(n int64, yield func(cut int64) bool)

// runOn is RunCtx the way an engine drives a block plan: the pass
// registers on pool under label and weight for the duration of the run,
// whose positions are input's bytes.
func runOn[R any](ctx context.Context, input []byte, cuts cutFunc, pool *Pool, label string, weight int, process func(Block) R, fold func(Block, R)) (Stats, error) {
	h := pool.Register(ctx, label, weight, QueryPass, 0)
	defer h.Close()
	st, err := RunCtx(ctx, int64(len(input)), cuts, h, process, fold)
	st.Bytes = int64(len(input))
	return st, err
}

// run is runOn a pool of the given size started for the call, under a
// background context: for the tests that exercise neither cancellation
// nor sharing.
func run[R any](t *testing.T, input []byte, cuts cutFunc, workers int, process func(Block) R, fold func(Block, R)) Stats {
	t.Helper()
	pool := NewPool(workers)
	defer pool.Close()
	st, err := runOn(context.Background(), input, cuts, pool, "", 1, process, fold)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// cutsOf collects what a splitter streams over [0, n).
func cutsOf(s FixedSplitter, n int64) []int64 {
	var cuts []int64
	s.Cuts(n, func(c int64) bool { cuts = append(cuts, c); return true })
	return cuts
}

func TestFixedSplitter(t *testing.T) {
	cuts := cutsOf(FixedSplitter{BlockSize: 30}, 100)
	want := []int64{30, 60, 90}
	if len(cuts) != len(want) {
		t.Fatalf("cuts = %v, want %v", cuts, want)
	}
	for i := range cuts {
		if cuts[i] != want[i] {
			t.Fatalf("cuts = %v, want %v", cuts, want)
		}
	}
	// Default block size when unset.
	if got := cutsOf(FixedSplitter{}, 10); len(got) != 0 {
		t.Errorf("small input cuts = %v", got)
	}
}

func TestRunSumsAllBytes(t *testing.T) {
	input := bytes.Repeat([]byte{1}, 10000)
	for _, workers := range []int{1, 2, 4, 8} {
		var total int64
		var calls int32
		st := run(t, input, FixedSplitter{BlockSize: 117}.Cuts, workers,
			func(b Block) int64 {
				atomic.AddInt32(&calls, 1)
				var s int64
				for _, v := range input[b.Start:b.End] {
					s += int64(v)
				}
				return s
			},
			func(b Block, r int64) { total += r },
		)
		if total != 10000 {
			t.Fatalf("workers %d: total = %d, want 10000", workers, total)
		}
		if int(calls) != st.Blocks {
			t.Errorf("workers %d: calls %d != blocks %d", workers, calls, st.Blocks)
		}
		if st.Workers != workers {
			t.Errorf("stats workers = %d, want %d", st.Workers, workers)
		}
		if st.Bytes != 10000 {
			t.Errorf("stats bytes = %d", st.Bytes)
		}
	}
}

func TestRunFoldsInOrder(t *testing.T) {
	input := make([]byte, 1000)
	var order []int
	run(t, input, FixedSplitter{BlockSize: 37}.Cuts, 4,
		func(b Block) int { return b.Index },
		func(b Block, r int) { order = append(order, r) },
	)
	for i, v := range order {
		if v != i {
			t.Fatalf("fold order %v", order)
		}
	}
	if len(order) == 0 {
		t.Fatal("no blocks folded")
	}
}

func TestRunSingleBlock(t *testing.T) {
	input := []byte("hello")
	n := 0
	st := run(t, input, FixedSplitter{BlockSize: 1 << 20}.Cuts, 2,
		func(b Block) int { return int(b.End - b.Start) },
		func(b Block, r int) { n += r },
	)
	if n != 5 || st.Blocks != 1 {
		t.Fatalf("n=%d blocks=%d", n, st.Blocks)
	}
}

func TestRunEmptyInput(t *testing.T) {
	var input []byte
	called := 0
	st := run(t, input, FixedSplitter{BlockSize: 10}.Cuts, 2,
		func(b Block) int { called++; return 0 },
		func(b Block, r int) {},
	)
	// One empty block is acceptable; it must not crash.
	if st.Blocks != 1 || called != 1 {
		t.Fatalf("blocks=%d called=%d", st.Blocks, called)
	}
}

func TestStatsThroughput(t *testing.T) {
	var s Stats
	if s.ThroughputMBs() != 0 {
		t.Error("zero-duration throughput should be 0")
	}
}

// TestRunOverlapsSplitAndProcess verifies the engine's headline property:
// workers start processing blocks while the splitter is still finding
// boundaries. The splitter yields one cut, then refuses to continue until
// a worker has processed a block — only an overlapped engine progresses.
func TestRunOverlapsSplitAndProcess(t *testing.T) {
	input := make([]byte, 4096)
	firstProcessed := make(chan struct{})
	var once sync.Once
	splitter := func(n int64, yield func(int64) bool) {
		yield(1024)
		select {
		case <-firstProcessed:
		case <-time.After(10 * time.Second):
			t.Error("no block processed before splitting completed; split phase is not overlapped")
		}
		yield(2048)
		yield(3072)
	}
	var processed atomic.Int32
	st := run(t, input, splitter, 2,
		func(b Block) int {
			processed.Add(1)
			once.Do(func() { close(firstProcessed) })
			return b.Index
		},
		func(b Block, r int) {},
	)
	if st.Blocks != 4 || processed.Load() != 4 {
		t.Fatalf("blocks=%d processed=%d, want 4", st.Blocks, processed.Load())
	}
}

// TestRunOutOfOrderCompletion completes blocks in roughly reverse order
// and checks the ordered-merge invariant; run under -race it also
// exercises the per-block ready-channel handoff.
func TestRunOutOfOrderCompletion(t *testing.T) {
	const blocks = 16
	input := make([]byte, 64*blocks)
	var order []int
	st := run(t, input, FixedSplitter{BlockSize: 64}.Cuts, 8,
		func(b Block) int {
			// Later blocks finish first.
			time.Sleep(time.Duration(blocks-b.Index) * time.Millisecond)
			return b.Index
		},
		func(b Block, r int) { order = append(order, r) },
	)
	if len(order) != blocks {
		t.Fatalf("folded %d blocks, want %d", len(order), blocks)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("fold order %v", order)
		}
	}
	if st.WallTime <= 0 || st.Total() != st.WallTime {
		t.Errorf("WallTime = %v, Total = %v", st.WallTime, st.Total())
	}
}

// TestRunStreamSplitterRejectsBadCuts feeds out-of-range and
// non-monotonic cuts and expects them to be dropped.
func TestRunStreamSplitterRejectsBadCuts(t *testing.T) {
	input := make([]byte, 100)
	splitter := func(n int64, yield func(int64) bool) {
		yield(0)   // not a cut
		yield(30)  // ok
		yield(20)  // backwards: dropped
		yield(30)  // duplicate: dropped
		yield(60)  // ok
		yield(100) // == len: dropped (final block is implicit)
		yield(200) // beyond end: dropped
	}
	var got []Block
	st := run(t, input, splitter, 2,
		func(b Block) Block { return b },
		func(b Block, r Block) { got = append(got, r) },
	)
	want := []Block{{0, 0, 30}, {1, 30, 60}, {2, 60, 100}}
	if len(got) != len(want) {
		t.Fatalf("blocks = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("blocks = %+v, want %+v", got, want)
		}
	}
	if st.Blocks != 3 {
		t.Errorf("st.Blocks = %d", st.Blocks)
	}
}

// TestRunCtxCancelStopsDispatch cancels a run mid-stream and verifies
// the splitter stops yielding, unprocessed blocks are skipped, the merge
// drains, and no goroutines are left behind.
func TestRunCtxCancelStopsDispatch(t *testing.T) {
	input := make([]byte, 1<<20)
	ctx, cancel := context.WithCancel(context.Background())
	var processed atomic.Int32
	var yields atomic.Int32
	splitter := func(n int64, yield func(int64) bool) {
		for c := int64(1024); c < n; c += 1024 {
			yields.Add(1)
			if yields.Load() == 8 {
				cancel()
			}
			if !yield(c) {
				return
			}
		}
	}
	folded := 0
	pool := NewPool(2)
	defer pool.Close()
	_, err := runOn(ctx, input, splitter, pool, "", 1,
		func(b Block) int {
			processed.Add(1)
			return b.Index
		},
		func(b Block, r int) { folded++ },
	)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	total := int(int64(len(input)) / 1024)
	if int(yields.Load()) >= total {
		t.Errorf("splitter ran to completion (%d yields) despite cancellation", yields.Load())
	}
	if folded > int(processed.Load()) {
		t.Errorf("folded %d > processed %d", folded, processed.Load())
	}
}

// TestRunCtxPool runs two concurrent pipelines on one shared pool and
// checks both produce complete, ordered results.
func TestRunCtxPool(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	input := bytes.Repeat([]byte{1}, 50000)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	totals := make([]int64, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var total int64
			st, err := runOn(context.Background(), input, FixedSplitter{BlockSize: 997}.Cuts, pool, "", 1,
				func(b Block) int64 {
					var s int64
					for _, v := range input[b.Start:b.End] {
						s += int64(v)
					}
					return s
				},
				func(b Block, r int64) { total += r },
			)
			errs[i] = err
			totals[i] = total
			if st.Workers != pool.Size() {
				t.Errorf("stats workers = %d, want pool size %d", st.Workers, pool.Size())
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if totals[i] != 50000 {
			t.Fatalf("run %d: total = %d, want 50000", i, totals[i])
		}
	}
}

// TestRunCtxPoolCancel cancels one of two concurrent runs sharing a pool
// and checks the other completes correctly.
func TestRunCtxPoolCancel(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	input := bytes.Repeat([]byte{1}, 100000)
	ctx, cancel := context.WithCancel(context.Background())

	var wg sync.WaitGroup
	wg.Add(2)
	var okTotal int64
	var okErr error
	go func() {
		defer wg.Done()
		_, err := runOn(ctx, input, FixedSplitter{BlockSize: 512}.Cuts, pool, "", 1,
			func(b Block) int {
				if b.Index == 3 {
					cancel()
				}
				return 0
			},
			func(b Block, r int) {},
		)
		if err == nil {
			t.Error("cancelled run returned nil error")
		}
	}()
	go func() {
		defer wg.Done()
		_, okErr = runOn(context.Background(), input, FixedSplitter{BlockSize: 4096}.Cuts, pool, "", 1,
			func(b Block) int64 {
				var s int64
				for _, v := range input[b.Start:b.End] {
					s += int64(v)
				}
				return s
			},
			func(b Block, r int64) { okTotal += r },
		)
	}()
	wg.Wait()
	if okErr != nil {
		t.Fatalf("unaffected run failed: %v", okErr)
	}
	if okTotal != 100000 {
		t.Fatalf("unaffected run total = %d, want 100000", okTotal)
	}
}
