package pipeline

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestTaskGroupWindow: the window bounds the tasks in flight — queued or
// running — whatever the pool could run at once: on a pool wider than the
// window, at no point do more than `window` tasks run, and every task
// completes before Wait returns.
func TestTaskGroupWindow(t *testing.T) {
	const window, total = 3, 50
	pool := NewPool(2 * window)
	defer pool.Close()
	h := pool.Register(context.Background(), "windowed", 1, JoinPass, 0)
	defer h.Close()
	g := NewTaskGroup(context.Background(), h, window)
	var inflight, maxSeen, done atomic.Int32
	for i := 0; i < total; i++ {
		ok := g.Go(func() {
			n := inflight.Add(1)
			for {
				m := maxSeen.Load()
				if n <= m || maxSeen.CompareAndSwap(m, n) {
					break
				}
			}
			time.Sleep(100 * time.Microsecond)
			inflight.Add(-1)
			done.Add(1)
		})
		if !ok {
			t.Fatalf("Go refused task %d", i)
		}
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if done.Load() != total {
		t.Fatalf("completed %d tasks, want %d", done.Load(), total)
	}
	if m := maxSeen.Load(); m > window {
		t.Fatalf("concurrency reached %d, window is %d", m, window)
	}
}

// TestTaskGroupPooledFeed: tasks fed through a PassHandle run on pool
// workers, the producer never outruns the window, and Wait drains all
// of them.
func TestTaskGroupPooledFeed(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	h := pool.Register(context.Background(), "feed", 1, JoinPass, 0)
	defer h.Close()

	const window, total = 4, 100
	g := NewTaskGroup(context.Background(), h, window)
	var done atomic.Int32
	for i := 0; i < total; i++ {
		if !g.Go(func() { done.Add(1) }) {
			t.Fatalf("Go refused task %d", i)
		}
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if done.Load() != total {
		t.Fatalf("completed %d, want %d", done.Load(), total)
	}
	if got := h.Granted(); got != total {
		t.Fatalf("handle granted %d, want %d", got, total)
	}
}

// TestTaskGroupCancel: cancelling the context makes Go refuse further
// tasks and Wait return the context error once in-flight (including
// drain-reclaimed) tasks finish.
func TestTaskGroupCancel(t *testing.T) {
	pool := NewPool(1)
	defer pool.Close()
	ctx, cancel := context.WithCancel(context.Background())
	h := pool.Register(ctx, "doomed", 1, JoinPass, 0)
	defer h.Close()

	block := make(chan struct{})
	g := NewTaskGroup(ctx, h, 2)
	if !g.Go(func() { <-block }) {
		t.Fatal("first Go refused")
	}
	if !g.Go(func() {}) { // queued behind the blocked worker
		t.Fatal("second Go refused")
	}
	cancel()
	// With the window full and ctx cancelled, Go must refuse instead of
	// blocking forever.
	refused := make(chan bool, 1)
	go func() { refused <- !g.Go(func() {}) }()
	select {
	case ok := <-refused:
		if !ok {
			t.Fatal("Go accepted a task after cancellation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Go blocked despite cancelled context")
	}
	close(block)
	if err := g.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
}

// TestTaskGroupPoolClosed: a pool closed underneath a live producer
// surfaces as ErrPoolClosed from Wait, not as a silently truncated
// stream.
func TestTaskGroupPoolClosed(t *testing.T) {
	pool := NewPool(1)
	h := pool.Register(context.Background(), "late", 1, JoinPass, 0)
	g := NewTaskGroup(context.Background(), h, 4)
	if !g.Go(func() {}) {
		t.Fatal("Go refused while pool open")
	}
	// Drain the pool and close it; the handle refuses further Submits.
	for deadline := time.Now().Add(5 * time.Second); h.Granted() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("first task never granted")
		}
		time.Sleep(time.Millisecond)
	}
	pool.Close()
	if g.Go(func() {}) {
		t.Fatal("Go accepted a task on a closed pool")
	}
	if err := g.Wait(); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Wait = %v, want ErrPoolClosed", err)
	}
	h.Close()
}
