// Package pipeline is the AT-GIS execution engine (paper §4.1, Fig. 5):
// query pipelines run in three phases. The *split* phase divides raw
// input into blocks (a pointer increment for fully-associative pipelines,
// a boundary search for partially-associative ones). The *processing*
// phase runs the entire transducer pipeline over each block on a pool of
// workers, keeping all intermediate state thread-local. The *merge* phase
// combines the per-block fragments in input order.
//
// All three phases overlap: block descriptors stream from the splitter
// to the worker pool as boundaries are found, workers publish each
// result on a per-block ready channel, and the merger consumes results
// in input order as soon as their predecessors are folded — exactly the
// concurrent split/process plus ordered merge the paper describes.
//
// Runs are cancellable: RunCtx threads a context through all three
// phases, so a cancelled request stops splitting, dispatches no further
// blocks and skips unprocessed ones. Workers come from a persistent Pool
// and from nowhere else, which lets many concurrent queries share one
// bounded set of processing threads: the caller registers a weighted
// PassHandle for the run's duration, and freed workers are granted
// block-by-block to the registered pass with the largest weighted deficit
// (stride scheduling, see sched.go), so concurrent passes converge to
// worker shares proportional to their weights while idle share
// redistributes work-conservingly. A caller with no pool to share starts
// one for the run and closes it afterwards (join.RunStream without a
// handle).
//
// Position in the system (docs/ARCHITECTURE.md has the full layer
// diagram): every execution path of the public API bottoms out in RunCtx,
// the one run loop. PreparedQuery passes, the join's partition pass, and
// CollectFeatures are block plans whose executor (atgis.runPlan) hands
// byte cuts + per-block processor + ordered fold to it; a join sweep
// (join.RunStream) hands it cell-batch cuts, a batch sweep and a fold
// that emits each batch's pairs in cell order. An atgis.Engine owns one
// Pool for all of them; the Pool's Busy gauge and scheduler snapshot are
// what Engine.Stats and the atgis-serve /v1/stats endpoint report. The pipeline itself never
// bounds how many runs are in flight — that is admission control's job
// (internal/admission), which gates runs before they reach this
// package; once runs are admitted, the pool's weighted scheduler
// apportions workers among them by tenant weight. Admission decides
// whether a query runs, the scheduler decides which admitted pass gets
// the next freed worker.
package pipeline

import (
	"context"
	"runtime/metrics"
	"time"
	"unsafe"

	"atgis/internal/faultinject"
)

// Block is one contiguous range [Start, End) of a run's positions: bytes
// of the input, or grid cells of a join sweep.
type Block struct {
	Index      int
	Start, End int64
}

// Stats reports where a run's time went, matching the phase breakdown
// the paper measures (split, processing P, merge M), plus allocation
// and GC counters so allocation regressions on the hot path are visible.
type Stats struct {
	// SplitTime is the time the splitter spent finding boundaries,
	// excluding backpressure waits on the block queues. It overlaps
	// ProcessTime (the phases run concurrently), so do not sum phases:
	// WallTime is the authoritative total.
	SplitTime   time.Duration
	ProcessTime time.Duration // wall-clock of the parallel phase
	MergeTime   time.Duration
	WallTime    time.Duration // end-to-end duration of the run
	Blocks      int
	Bytes       int64
	Workers     int

	// AllocBytes/AllocObjects/GCCycles are process-wide deltas across
	// the run (runtime/metrics), a coarse allocation budget for the
	// whole pipeline including concurrent phases.
	AllocBytes   uint64
	AllocObjects uint64
	GCCycles     uint64
}

// Total returns the end-to-end duration. Phases overlap, so the wall
// clock — not the sum of phase times — is the authoritative total.
func (s Stats) Total() time.Duration {
	if s.WallTime > 0 {
		return s.WallTime
	}
	return s.SplitTime + s.ProcessTime + s.MergeTime
}

// ThroughputMBs returns processing throughput in MB/s over the total
// time, the headline metric of the paper's figures.
func (s Stats) ThroughputMBs() float64 {
	t := s.Total().Seconds()
	if t <= 0 {
		return 0
	}
	return float64(s.Bytes) / (1 << 20) / t
}

// Add returns the stats of s followed by o — two runs, or a run and the
// fold work after it, that together are one pass over the same input:
// times, blocks and allocation deltas add up, the input is counted once.
func (s Stats) Add(o Stats) Stats {
	s.SplitTime += o.SplitTime
	s.ProcessTime += o.ProcessTime
	s.MergeTime += o.MergeTime
	s.WallTime += o.WallTime
	s.Blocks += o.Blocks
	s.Bytes = max(s.Bytes, o.Bytes)
	s.Workers = max(s.Workers, o.Workers)
	s.AllocBytes += o.AllocBytes
	s.AllocObjects += o.AllocObjects
	s.GCCycles += o.GCCycles
	return s
}

// FixedSplitter cuts a run's positions into fixed-size blocks: the
// zero-cost split of fully-associative pipelines (bytes) and of join
// sweeps (grid cells).
type FixedSplitter struct{ BlockSize int }

// Cuts yields the interior cuts of [0, n) every BlockSize positions
// (1 MiB when unset), stopping when yield returns false; its method value
// is a RunCtx cut function.
func (s FixedSplitter) Cuts(n int64, yield func(cut int64) bool) {
	bs := s.BlockSize
	if bs < 1 {
		bs = 1 << 20
	}
	for c := int64(bs); c < n; c += int64(bs) {
		if !yield(c) {
			return
		}
	}
}

// item carries one block through the engine: workers fill r and close
// ready; the merger waits on ready in input order. skipped marks blocks
// abandoned by a cancelled run (ready is still closed so the ordered
// merge can drain).
type item[R any] struct {
	b       Block
	r       R
	skipped bool
	ready   chan struct{}
}

// span measures a stretch of a pass the way Stats reports it: the wall
// clock and the process-wide allocation counters.
type span struct {
	t0      time.Time
	samples [3]metrics.Sample
	base    [3]uint64
}

func startSpan() *span {
	sp := &span{samples: [3]metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}}
	sp.base = sp.read()
	sp.t0 = time.Now()
	return sp
}

func (sp *span) read() (v [3]uint64) {
	metrics.Read(sp.samples[:])
	for i := range sp.samples {
		if sp.samples[i].Value.Kind() != metrics.KindUint64 {
			return [3]uint64{}
		}
		v[i] = sp.samples[i].Value.Uint64()
	}
	return v
}

// end sets st's wall time and allocation deltas to the span's.
func (sp *span) end(st *Stats) {
	st.WallTime = time.Since(sp.t0)
	now := sp.read()
	st.AllocBytes = now[0] - sp.base[0]
	st.AllocObjects = now[1] - sp.base[1]
	st.GCCycles = now[2] - sp.base[2]
}

// Tail measures f, the work a pass does on the fold goroutine after its
// run (a fold's finish), as stats to Add to the run's: wall and merge
// time, and what it allocated.
func Tail(f func()) Stats {
	var st Stats
	sp := startSpan()
	f()
	sp.end(&st)
	st.MergeTime = st.WallTime
	return st
}

// SourceKey derives a scheduler locality key from a run's input bytes:
// the address of the first mapped byte, which identifies the backing
// mmap (or heap buffer) for the run's lifetime — runs over the same
// mapping share a key, distinct mappings collide only after an unmap.
// Empty inputs return 0 (no key). The address is used purely as an
// opaque identity and never dereferenced.
func SourceKey(data []byte) uint64 {
	if len(data) == 0 {
		return 0
	}
	return uint64(uintptr(unsafe.Pointer(&data[0])))
}

// RunCtx executes process over every block of the positions [0, n) and
// folds the results in position order. The positions are bytes for a
// block plan and grid cells for a join sweep. Splitting, processing and
// merging overlap: cuts streams the block boundaries as it finds them —
// cut positions strictly inside (0, n) in increasing order, stopping
// when yield returns false (a cancelled run refuses further blocks); a
// cut that does not advance or falls outside the range is dropped, and
// the last block ends at n. Each block is one task on the pass's
// dispatch queue — pass is the registration the caller made with
// Pool.Register and closes when the run returns — each worker publishes
// its result on the block's ready channel, and the fold — running on the
// caller's goroutine — consumes results as soon as their predecessors are
// merged, the ordered associative reduction of §3.2. RunCtx starts no
// worker of its own: freed pool workers are granted block by block, by
// weighted deficit across all registered passes. At most 3·workers+4
// blocks wait between the splitter and the fold, so a fold blocked on its
// consumer holds that many results plus the one it is folding.
//
// Cancelling ctx stops the run promptly: the splitter dispatches no
// further blocks, queued blocks are skipped instead of processed, no
// further results are folded, and RunCtx returns ctx's error. Partial
// folds may already have happened; callers must treat the result as
// invalid when an error is returned.
//
// Faults are confined to the run: every phase that touches input bytes
// (block processing, the boundary-searching splitter, the merge fold)
// executes under Guarded, so a panic — a parser bug on malformed bytes,
// or a SIGBUS from a source truncated under its mmap — cancels and
// fails only this run, returning *PassPanicError or *SourceFaultError.
// The error's site is "block" ("join-batch" on a JoinPass), "split" or
// "merge". The pool, its workers and all concurrent runs are unaffected.
// The returned Stats leave Bytes to the caller.
func RunCtx[R any](
	ctx context.Context,
	n int64,
	cuts func(n int64, yield func(cut int64) bool),
	pass *PassHandle,
	process func(b Block) R,
	fold func(b Block, r R),
) (Stats, error) {
	label := pass.Label()
	site := "block"
	if pass.kind == JoinPass {
		site = "join-batch"
	}
	st := Stats{Workers: pass.Workers()}

	sp := startSpan()
	// failRun cancels the run with a typed pass error as the cause; the
	// splitter, workers and fold all observe the cancellation through
	// ctx, and the cause is what RunCtx returns. The pass's queued blocks
	// are reclaimed inline (they see the cancelled run and skip), so a
	// failed run never waits for workers other passes hold.
	ctx, cancelRun := context.WithCancelCause(ctx)
	defer cancelRun(nil)
	failRun := func(err error) {
		cancelRun(err)
		pass.Drain()
	}
	done := ctx.Done()
	// The order channel must hold every block that can be in flight
	// beyond the merge head (queued + running) so the splitter never
	// blocks on it while the merger waits for the head block; its bound
	// is also what paces the splitter against the workers, because
	// Submit never blocks.
	order := make(chan *item[R], 3*st.Workers+4)

	// run processes one block unless the run was cancelled first. A
	// panic or memory fault inside process fails this run only.
	run := func(it *item[R]) {
		if ctx.Err() == nil {
			if err := Guarded(label, site, it.b.Index, func() {
				faultinject.Fire("pipeline.block", label, int64(it.b.Index))
				it.r = process(it.b)
			}); err != nil {
				it.skipped = true
				failRun(err)
			}
		} else {
			it.skipped = true
		}
		close(it.ready)
	}

	// submit queues a block on the pass, giving up (and marking the block
	// skipped) once ctx is cancelled. refused is written by the splitter
	// goroutine and read after splitDone.
	var refused error
	submit := func(it *item[R]) bool {
		if ctx.Err() == nil && pass.Submit(func() { run(it) }) {
			return true
		}
		if ctx.Err() == nil && refused == nil {
			// Submit refused without cancellation of ctx: the pass's own
			// registration context ended, or the pool was closed
			// underneath the run. Either way the run fails loudly instead
			// of folding a truncated result.
			refused = pass.refusal()
		}
		it.skipped = true
		close(it.ready)
		return false
	}

	// Splitter goroutine: stream block descriptors as cuts are found.
	var splitDur time.Duration
	splitDone := make(chan struct{})
	go func() {
		defer close(splitDone)
		s0 := time.Now()
		var blocked time.Duration // backpressure waiting on full queues
		prev := int64(0)
		idx := 0
		cancelled := false
		dispatch := func(b Block) {
			it := &item[R]{b: b, ready: make(chan struct{})}
			d0 := time.Now()
			select {
			case order <- it:
			case <-done:
				cancelled = true
				blocked += time.Since(d0)
				return
			}
			if !submit(it) {
				cancelled = true
			}
			blocked += time.Since(d0)
		}
		yield := func(c int64) bool {
			if cancelled {
				return false
			}
			if c <= prev || c >= n {
				return true
			}
			dispatch(Block{Index: idx, Start: prev, End: c})
			if cancelled {
				return false
			}
			prev = c
			idx++
			return true
		}
		// The splitter may scan raw input bytes, so it runs guarded like
		// the workers: a panic (or mmap fault) while finding boundaries
		// fails this run instead of the process.
		if err := Guarded(label, "split", 0, func() {
			faultinject.Fire("pipeline.split", label, 0)
			cuts(n, yield)
		}); err != nil {
			cancelled = true
			failRun(err)
		}
		if !cancelled {
			dispatch(Block{Index: idx, Start: prev, End: n})
		}
		// Report only the time spent finding boundaries: waiting for a
		// full order queue is the workers' time, not the split
		// phase's, and counting it would double-bill overlapped phases.
		splitDur = time.Since(s0) - blocked
		close(order)
	}()

	// Ordered merge on the caller's goroutine. On cancellation the loop
	// keeps draining order (the splitter stops quickly, so the channel is
	// bounded) but folds nothing further.
	var mergeTime time.Duration
	blocks := 0
	for it := range order {
		<-it.ready
		if it.skipped || ctx.Err() != nil {
			continue
		}
		m0 := time.Now()
		// The fold also reads input bytes (fragment repair reaches into
		// neighbouring blocks), so it is guarded too; a fold panic fails
		// the run and the loop keeps draining without folding further.
		if err := Guarded(label, "merge", it.b.Index, func() {
			faultinject.Fire("pipeline.merge", label, int64(it.b.Index))
			fold(it.b, it.r)
		}); err != nil {
			failRun(err)
			continue
		}
		mergeTime += time.Since(m0)
		blocks++
	}
	<-splitDone

	sp.end(&st)
	st.Blocks = blocks
	st.SplitTime = splitDur
	st.MergeTime = mergeTime
	st.ProcessTime = st.WallTime - mergeTime
	if st.ProcessTime < 0 {
		st.ProcessTime = 0
	}
	if ctx.Err() != nil {
		// The cancellation cause: a pass failure (panic, source fault)
		// cancelled the run with its typed error as cause. Plain parent
		// cancellation or deadline expiry leaves cause == ctx.Err().
		return st, context.Cause(ctx)
	}
	if refused != nil {
		return st, refused
	}
	return st, nil
}
