// Package faultinject provides deterministic, test-driven fault hooks
// for the execution stack. Production code calls Fire at named sites
// (one per instrumented location: a pipeline block about to be
// processed, a join cell batch, an admission acquire); tests arm a Hook
// per site that panics, sleeps, or throws a simulated memory fault to
// exercise the fault-containment paths under -race without build tags.
//
// The package is build-tag-free and nil-by-default: when nothing is
// armed, Fire is a single atomic load — cheap enough to sit on the
// block-dispatch hot path (one Fire per ~1 MiB block). Hooks are keyed
// by site name; the hook itself decides the fault mode:
//
//   - panic("boom")                     → injected worker panic
//     (surfaces as *pipeline.PassPanicError for that pass only)
//   - panic(faultinject.SimulatedFault) → simulated mmap read fault
//     (surfaces as *pipeline.SourceFaultError, like a real SIGBUS)
//   - time.Sleep(...)                   → slow block / admission stall
//     (drives deadline and preemption tests deterministically)
//
// Sites currently instrumented:
//
//	pipeline.block     one per block handed to a worker, a join's cell batches included (index = block)
//	pipeline.split     once per splitter run (index = 0)
//	pipeline.merge     one per folded block, a join's cell batches included (index = block)
//	join.batch         one per join cell batch, inside its block (index = batch)
//	kernel.batch       one per kernel-refined join cell batch (index = batch)
//	admission.acquire  one per admission Acquire (index = 0)
//	sidecar.load       one per sidecar index read (label = source file)
//	sidecar.write      one per sidecar persist attempt (label = source file)
//	shard.rpc          one per coordinator shard RPC attempt (index = shard)
//	shard.merge        one per coordinator shard stream-merge attempt (index = shard)
//
// Every Fire carries the pass label (the tenant on engine-owned pools),
// so a hook can poison one tenant's passes while other tenants proceed —
// the multi-tenant isolation chaos tests depend on that selectivity.
package faultinject

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Hook is invoked at an instrumented site when armed. label is the
// pass/tenant label of the firing site ("" outside an engine pool);
// index identifies the unit of work (block index, cell-batch index).
// A hook injects faults by panicking or sleeping; returning normally
// injects nothing.
type Hook func(label string, index int64)

// SimulatedFault is the panic value a hook throws to simulate a memory
// fault on an mmap'd read (a file truncated or deleted under the
// mapping). The pipeline's recover classifier treats it exactly like a
// real runtime fault: the pass fails with *pipeline.SourceFaultError
// (matching pipeline.ErrSourceFault) instead of a generic pass panic.
type SimulatedFault struct {
	// Site names the site that threw, for test assertions.
	Site string
}

func (f SimulatedFault) String() string {
	return fmt.Sprintf("faultinject: simulated memory fault at %s", f.Site)
}

var (
	// armed short-circuits Fire when no hook is registered; it is the
	// only cost paid on the hot path in production.
	armed atomic.Bool

	mu    sync.RWMutex
	hooks map[string]Hook
)

// Fire invokes the hook armed for site, if any. With nothing armed it
// is one atomic load and returns immediately.
func Fire(site, label string, index int64) {
	if !armed.Load() {
		return
	}
	mu.RLock()
	h := hooks[site]
	mu.RUnlock()
	if h != nil {
		h(label, index)
	}
}

// Set arms hook for site (replacing any previous hook there). Tests
// must pair Set with Reset — typically t.Cleanup(faultinject.Reset) —
// so sites disarm before the next test.
func Set(site string, hook Hook) {
	mu.Lock()
	if hooks == nil {
		hooks = make(map[string]Hook)
	}
	hooks[site] = hook
	armed.Store(true)
	mu.Unlock()
}

// Reset disarms every site.
func Reset() {
	mu.Lock()
	hooks = nil
	armed.Store(false)
	mu.Unlock()
}
