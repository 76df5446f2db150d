package pipeline

import (
	"context"
	"sync"
)

// TaskGroup feeds a dynamically generated stream of independent tasks
// through a pass's dispatch queue, bounding how many are in flight
// (queued or granted) at once. Each task is one scheduling quantum, so
// the pass is preemptible and cancellable between tasks, and no
// feeder-ordering invariant exists — the producer simply blocks in Go
// until the window has room. The tasks queue on the pool's weighted
// scheduler: the pool's worker count bounds concurrency, the window
// paces the producer against the grants. Wait blocks until every
// accepted task returned.
//
// A group is single-producer: Go and Wait are called from one
// goroutine; only the tasks themselves run concurrently.
type TaskGroup struct {
	ctx    context.Context
	handle *PassHandle
	sem    chan struct{}
	wg     sync.WaitGroup
	// refused is set when Submit rejected a task while ctx was still
	// live: the pool was closed underneath the run, which must fail
	// loudly rather than pass off a truncated sweep as complete.
	refused bool
}

// NewTaskGroup builds a group over handle admitting at most window
// in-flight tasks (minimum 1).
func NewTaskGroup(ctx context.Context, handle *PassHandle, window int) *TaskGroup {
	if window < 1 {
		window = 1
	}
	return &TaskGroup{ctx: ctx, handle: handle, sem: make(chan struct{}, window)}
}

// Go submits one task, blocking until the in-flight window has room.
// It returns false when the stream should stop: the context was
// cancelled, or the pool refused the task (closed). Tasks may still be
// executing when Go returns; Wait collects them.
func (g *TaskGroup) Go(task func()) bool {
	select {
	case g.sem <- struct{}{}:
	case <-g.ctx.Done():
		return false
	}
	if g.ctx.Err() != nil {
		<-g.sem
		return false
	}
	g.wg.Add(1)
	if !g.handle.Submit(func() {
		defer g.wg.Done()
		defer func() { <-g.sem }()
		task()
	}) {
		g.wg.Done()
		<-g.sem
		if g.ctx.Err() == nil {
			g.refused = true
		}
		return false
	}
	return true
}

// Wait blocks until every accepted task has completed, then reports how
// the stream ended: nil on a clean drain, the context's error on
// cancellation, ErrPoolClosed when the pool was closed underneath a
// live producer. (On cancellation, tasks queued but never granted are
// reclaimed by the handle's drain-on-cancel watcher — they run inline,
// observe the cancelled context and return, so Wait never depends on
// pool workers freeing up.)
func (g *TaskGroup) Wait() error {
	g.wg.Wait()
	if err := g.ctx.Err(); err != nil {
		return err
	}
	if g.refused {
		return ErrPoolClosed
	}
	return nil
}
