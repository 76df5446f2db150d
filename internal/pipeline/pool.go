package pipeline

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrPoolClosed reports that a run lost blocks because its pool was
// closed underneath it — a contract violation (Close requires quiesced
// runs) that must fail loudly rather than fold a silently truncated
// result.
var ErrPoolClosed = errors.New("pipeline: worker pool closed during run")

// Pool is a persistent worker pool shared by many pipeline runs, and the
// only place a run's tasks execute. An Engine owns one pool so concurrent
// queries share a bounded set of processing threads.
//
// Work reaches the pool through per-pass dispatch queues: every run
// registers a PassHandle (Register) carrying a scheduling weight, and
// freed workers are granted to the registered pass with the largest
// weighted deficit — stride scheduling over block dispatch (see
// sched.go). Concurrent passes therefore converge to worker shares
// proportional to their weights, while idle share redistributes
// work-conservingly; a sole pass uses the whole pool.
type Pool struct {
	s    *sched
	size int
	busy atomic.Int64
	wg   sync.WaitGroup
	once sync.Once
}

// NewPool starts a pool of size worker goroutines (GOMAXPROCS when
// size <= 0).
func NewPool(size int) *Pool {
	if size < 1 {
		size = runtime.GOMAXPROCS(0)
	}
	p := &Pool{s: newSched(), size: size}
	p.wg.Add(size)
	for i := 0; i < size; i++ {
		go func(id int) {
			defer p.wg.Done()
			for {
				f := p.s.next(id)
				if f == nil {
					return
				}
				p.busy.Add(1)
				runShielded(f)
				p.busy.Add(-1)
			}
		}(i)
	}
	return p
}

// runShielded executes one granted task, keeping the worker alive if
// the task panics. Every task RunCtx submits already converts its own panics into a typed pass failure (see
// fault.go), so a panic reaching this recover means a task without
// that envelope slipped in — the worker survives it as a last line of
// defense, because one pass's fault must never take down the pool the
// other tenants' passes run on.
func runShielded(f func()) {
	defer func() { _ = recover() }()
	f()
}

// Size returns the number of workers.
func (p *Pool) Size() int { return p.size }

// Busy returns the number of workers currently executing a task — the
// pool-utilisation gauge surfaced by Engine.Stats and the atgis-serve
// stats endpoint. Every task is one scheduling quantum (a block or a
// cell batch), so residency is bounded by the quantum.
func (p *Pool) Busy() int { return int(p.busy.Load()) }

// Register adds a pass to the pool's weighted scheduler: label names it
// in SchedSnapshot (engines pass the tenant), weight is its
// proportional share (clamped to a minimum of 1), kind classifies its
// tasks for the snapshot's block-vs-cell-batch counters, and src is the
// pass's source-mapping key (SourceKey; 0 = unknown) feeding the
// locality tie-break. The caller must Close the handle when the pass
// completes — including on cancellation — so its queue and share
// return to the pool.
//
// When ctx is cancellable, a watcher reclaims the pass's queued tasks
// inline (Drain) the moment ctx is cancelled: a cancelled pass must
// never depend on pool workers becoming free to observe its queue —
// a slot could be held by another pass's task for a whole quantum.
// Close stops the watcher.
func (p *Pool) Register(ctx context.Context, label string, weight int, kind PassKind, src uint64) *PassHandle {
	h := p.s.register(label, weight, kind, src)
	h.workers = p.size
	if done := ctx.Done(); done != nil {
		h.watch = make(chan struct{})
		go func(stop chan struct{}) {
			// Shielded like the workers: a panic while draining a
			// cancelled pass (a scheduler bug) must fail that pass,
			// never the process every other tenant runs in.
			runShielded(func() {
				select {
				case <-done:
					h.drain(context.Cause(ctx))
				case <-stop:
				}
			})
		}(h.watch)
	}
	return h
}

// SchedSnapshot reports the weighted scheduler's per-label state
// (registered passes, queued blocks, grants, deficits) plus the pool's
// lifetime grant total.
func (p *Pool) SchedSnapshot() SchedStats { return p.s.snapshot() }

// Close stops the workers after draining queued tasks. Runs must not be
// in flight or submitted afterwards.
func (p *Pool) Close() {
	p.once.Do(p.s.close)
	p.wg.Wait()
}
