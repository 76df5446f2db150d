package pipeline

// Fault-containment tests for the pipeline layer: Guarded's recover
// classification, and panic confinement at each instrumented phase
// (process, split, merge) — a failing run returns its typed error while
// a concurrent run on the same pool completes untouched.

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"atgis/internal/faultinject"
)

func TestGuardedClassification(t *testing.T) {
	// Success injects nothing.
	if err := Guarded("t", "block", 0, func() {}); err != nil {
		t.Fatalf("clean run: %v", err)
	}

	// Plain panic → *PassPanicError with label, site, index and stack.
	err := Guarded("tenant", "block", 7, func() { panic("boom") })
	var pp *PassPanicError
	if !errors.As(err, &pp) {
		t.Fatalf("err = %v, want *PassPanicError", err)
	}
	if pp.Label != "tenant" || pp.Site != "block" || pp.Index != 7 {
		t.Fatalf("panic error = %+v", pp)
	}
	if !strings.Contains(string(pp.Stack), "fault_test") {
		t.Fatalf("stack does not name the panicking frame:\n%s", pp.Stack)
	}
	if !strings.Contains(pp.Error(), "boom") {
		t.Fatalf("message drops the panic value: %q", pp.Error())
	}

	// Simulated mmap fault → *SourceFaultError matching ErrSourceFault.
	err = Guarded("tenant", "block", 3, func() {
		panic(faultinject.SimulatedFault{Site: "pipeline.block"})
	})
	if !errors.Is(err, ErrSourceFault) {
		t.Fatalf("err = %v, want ErrSourceFault", err)
	}
	var sf *SourceFaultError
	if !errors.As(err, &sf) || sf.Index != 3 {
		t.Fatalf("err = %v, want *SourceFaultError index 3", err)
	}

	// A nested Guarded restores the outer SetPanicOnFault state: the
	// error still classifies at the inner frame.
	err = Guarded("a", "block", 0, func() {
		inner := Guarded("b", "merge", 1, func() { panic("inner") })
		if inner == nil {
			t.Error("inner panic not caught")
		}
	})
	if err != nil {
		t.Fatalf("outer run failed after nested recover: %v", err)
	}
}

// faultRun runs one pooled pass over input with the given hook armed
// and returns its error; a concurrent clean run on the same pool must
// complete with the full byte total.
func faultRun(t *testing.T, site string, hook faultinject.Hook) error {
	t.Helper()
	t.Cleanup(faultinject.Reset)
	faultinject.Set(site, hook)

	pool := NewPool(2)
	defer pool.Close()
	input := bytes.Repeat([]byte{1}, 50000)
	sum := func(b Block) int64 {
		var s int64
		for _, v := range input[b.Start:b.End] {
			s += int64(v)
		}
		return s
	}

	var wg sync.WaitGroup
	var poisonErr, cleanErr error
	var cleanTotal int64
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, poisonErr = runOn(context.Background(), input, FixedSplitter{BlockSize: 997}.Cuts,
			pool, "poison", 1, sum, func(b Block, r int64) {})
	}()
	go func() {
		defer wg.Done()
		var total int64
		_, cleanErr = runOn(context.Background(), input, FixedSplitter{BlockSize: 997}.Cuts,
			pool, "clean", 1, sum, func(b Block, r int64) { total += r })
		cleanTotal = total
	}()
	wg.Wait()

	if cleanErr != nil {
		t.Fatalf("clean run failed alongside poisoned one: %v", cleanErr)
	}
	if cleanTotal != 50000 {
		t.Fatalf("clean run total = %d, want 50000", cleanTotal)
	}
	// The pool survived and is idle.
	deadline := time.Now().Add(2 * time.Second)
	for pool.Busy() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pool still busy after failed pass: %d", pool.Busy())
		}
		time.Sleep(time.Millisecond)
	}
	return poisonErr
}

func poisonHook(fail func()) faultinject.Hook {
	return func(label string, index int64) {
		if label == "poison" {
			fail()
		}
	}
}

func TestRunCtxPanicInProcess(t *testing.T) {
	err := faultRun(t, "pipeline.block", poisonHook(func() { panic("process boom") }))
	var pp *PassPanicError
	if !errors.As(err, &pp) || pp.Site != "block" {
		t.Fatalf("err = %v, want *PassPanicError at block", err)
	}
}

func TestRunCtxPanicInSplit(t *testing.T) {
	err := faultRun(t, "pipeline.split", poisonHook(func() { panic("split boom") }))
	var pp *PassPanicError
	if !errors.As(err, &pp) || pp.Site != "split" {
		t.Fatalf("err = %v, want *PassPanicError at split", err)
	}
}

func TestRunCtxPanicInMerge(t *testing.T) {
	err := faultRun(t, "pipeline.merge", poisonHook(func() { panic("merge boom") }))
	var pp *PassPanicError
	if !errors.As(err, &pp) || pp.Site != "merge" {
		t.Fatalf("err = %v, want *PassPanicError at merge", err)
	}
}

func TestRunCtxSourceFaultInProcess(t *testing.T) {
	err := faultRun(t, "pipeline.block", poisonHook(func() {
		panic(faultinject.SimulatedFault{Site: "pipeline.block"})
	}))
	if !errors.Is(err, ErrSourceFault) {
		t.Fatalf("err = %v, want ErrSourceFault", err)
	}
}
