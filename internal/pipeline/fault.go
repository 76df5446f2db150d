package pipeline

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"

	"atgis/internal/faultinject"
)

// This file is the pipeline's fault-containment layer: every goroutine
// that touches raw input bytes (workers processing blocks, the splitter
// scanning for boundaries, the merge fold) runs inside a guarded
// section that (a) recovers panics and converts them into typed,
// pass-scoped errors, and (b) arms runtime/debug.SetPanicOnFault so a
// memory fault on an mmap'd read — SIGBUS from a file truncated or
// deleted under the mapping — becomes a recoverable panic instead of
// killing the process. A poisoned block or a vanished source therefore
// fails only its own pass: the pass deregisters from the scheduler,
// its admission slot releases through the normal error return, and
// every other pass on the shared pool keeps running.

// ErrSourceFault is the sentinel matched (errors.Is) when a pass died
// on a memory fault while reading its input — the mmap'd file was
// truncated, deleted, or the backing device disappeared. The concrete
// error is *SourceFaultError. Serving layers should mark the source
// unhealthy and keep the process up: the fault is a property of that
// source, not of the engine.
var ErrSourceFault = errors.New("pipeline: memory fault reading source (file truncated or removed under mmap?)")

// SourceFaultError reports a memory fault confined to one pass.
type SourceFaultError struct {
	// Label is the failed pass's scheduler label (the tenant on
	// engine-owned pools).
	Label string
	// Site is the pipeline phase that faulted: "block", "split", or
	// "merge" for query pipelines, "join-batch" for join sweeps.
	Site string
	// Index is the block or cell-batch index being processed.
	Index int
	// Addr is the faulting address when the runtime reported one
	// (real faults only; zero for simulated faults).
	Addr uintptr
}

func (e *SourceFaultError) Error() string {
	return fmt.Sprintf("pipeline: source fault in pass %q (%s %d, addr 0x%x): %v",
		e.Label, e.Site, e.Index, e.Addr, ErrSourceFault)
}

// Unwrap lets errors.Is(err, ErrSourceFault) match.
func (e *SourceFaultError) Unwrap() error { return ErrSourceFault }

// PassPanicError reports a panic recovered inside one pass — a parser
// bug on malformed bytes, adversarial geometry, an injected fault. The
// panic is confined: only the owning pass fails with this error; the
// pool, its workers, and all concurrent passes continue.
type PassPanicError struct {
	// Label is the failed pass's scheduler label (the tenant on
	// engine-owned pools).
	Label string
	// Site is the phase that panicked: "block", "split", "merge", or
	// "join-batch".
	Site string
	// Index is the block or cell-batch index being processed.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured at recovery.
	Stack []byte
}

func (e *PassPanicError) Error() string {
	return fmt.Sprintf("pipeline: panic in pass %q (%s %d): %v", e.Label, e.Site, e.Index, e.Value)
}

// recoveredError classifies a recovered panic value into the typed
// pass-failure error. Memory-fault panics — the runtime.Error thrown
// under SetPanicOnFault carries an Addr method — and the fault
// injector's SimulatedFault map to *SourceFaultError; everything else
// is a *PassPanicError carrying the stack.
func recoveredError(label, site string, index int, v any, stack []byte) error {
	if _, ok := v.(faultinject.SimulatedFault); ok {
		return &SourceFaultError{Label: label, Site: site, Index: index}
	}
	if re, ok := v.(runtime.Error); ok {
		if ae, ok := re.(interface{ Addr() uintptr }); ok {
			return &SourceFaultError{Label: label, Site: site, Index: index, Addr: ae.Addr()}
		}
	}
	return &PassPanicError{Label: label, Site: site, Index: index, Value: v, Stack: stack}
}

// Guarded runs f inside the pipeline's fault-containment envelope:
// memory faults on mapped reads panic (recoverably) instead of killing
// the process, and any panic — fault, parser bug, injected — returns as
// the typed pass error instead of propagating. label and site feed the
// error's attribution; index identifies the unit of work.
//
// This is the one wrapper every byte-touching phase runs under; RunCtx
// runs its blocks (a join sweep's cell batches included), splitter and
// fold in it.
func Guarded(label, site string, index int, f func()) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = recoveredError(label, site, index, v, debug.Stack())
		}
	}()
	old := debug.SetPanicOnFault(true)
	defer debug.SetPanicOnFault(old)
	f()
	return nil
}
