package pipeline

import (
	"sync"
	"time"
)

// This file implements the pool's weighted pass scheduler. Admission
// control (internal/admission) decides *whether* a query may run; the
// scheduler decides *which* admitted pass receives the next freed
// worker. The scheduling quantum is one task dispatch — a pipeline
// block for query passes, a cell batch for join sweeps — the natural
// unit the paper's scalability argument rests on (independent blocks,
// any worker can process any block), and the same quantum morsel-driven
// schedulers use. Because join sweeps dispatch per cell batch rather
// than holding long-lived workers, every pass — query or join — is
// preemptible at quantum granularity: a freed worker always goes to the
// largest-deficit pass, never to "whoever grabbed the slot first".
//
// The policy is stride scheduling, a deterministic proportional-share
// round-robin. Every registered pass carries a virtual time, advanced
// by 1/weight per granted block; a freed worker grants the next block
// to the backlogged pass with the smallest virtual time — equivalently,
// the largest weighted deficit (vclock − vtime). Consequences:
//
//   - N continuously-backlogged passes converge to block-grant shares
//     proportional to their weights;
//   - a pass with nothing queued is simply skipped, so any idle share
//     redistributes to the backlogged passes (work conservation) and a
//     sole pass uses the entire pool;
//   - passes that register, or that go idle and come back, enter at the
//     scheduler's virtual clock (max of their own virtual time and the
//     clock), so idle time is not banked into a later monopolising
//     burst.
//
// Per-pass queues are FIFO and unbounded here; in practice each
// pipeline run's bounded in-flight window (the order channel in RunCtx)
// keeps a pass at most ~3·workers blocks ahead, which is what provides
// splitter backpressure.

// PassKind classifies a registered pass for scheduler accounting: query
// pipelines dispatch blocks, join sweeps dispatch cell batches. Both are
// one scheduling quantum — the kind only splits the observability
// counters (queued/granted cell batches per tenant in /v1/stats) and
// names a failed task's site ("join-batch"), never the scheduling policy.
type PassKind uint8

// Pass kinds.
const (
	// QueryPass is a block-quantum pipeline run (queries, the join's
	// partition pass, CollectFeatures).
	QueryPass PassKind = iota
	// JoinPass is a cell-batch-quantum join sweep.
	JoinPass
)

// PassHandle registers one run (query pass, join sweep) with a Pool's
// weighted scheduler. Obtain one with Pool.Register, submit the pass's
// block tasks through Submit, and Close it when the run completes —
// also on cancellation — so the pass deregisters and its share returns
// to the pool.
type PassHandle struct {
	s      *sched
	label  string
	weight int
	kind   PassKind
	// src identifies the source mapping this pass reads (0 = unknown):
	// the locality tie-break prefers granting a worker a pass whose src
	// matches the worker's previous grant, so a worker keeps streaming
	// the mapping whose pages are warm in its cache hierarchy.
	src uint64
	// workers is the size of the pool the pass registered with: the most
	// tasks of the pass that can run at once.
	workers  int
	vtime    float64
	queue    []func()
	granted  uint64
	draining bool
	closed   bool
	// watch, when non-nil, stops the drain-on-cancel watcher goroutine
	// started by Pool.Register; Close closes it exactly once.
	watch chan struct{}
}

// Label returns the pass's scheduler label (typically the tenant).
func (h *PassHandle) Label() string { return h.label }

// Workers returns the size of the pool the pass is registered with; runs
// size their in-flight windows by it.
func (h *PassHandle) Workers() int { return h.workers }

// Granted returns how many tasks the scheduler has granted workers for
// this pass so far.
func (h *PassHandle) Granted() uint64 {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	return h.granted
}

// Submit enqueues one task on the pass's dispatch queue and reports
// whether it was accepted (false once the handle or the pool is
// closed). Submit never blocks: tasks wait in the per-pass queue until
// the scheduler grants them a worker.
func (h *PassHandle) Submit(f func()) bool {
	s := h.s
	s.mu.Lock()
	if h.closed || h.draining || s.closed {
		s.mu.Unlock()
		return false
	}
	if len(h.queue) == 0 && h.vtime < s.vclock {
		// (Re)activation: enter at the virtual clock so time spent idle
		// is not banked into a burst.
		h.vtime = s.vclock
	}
	h.queue = append(h.queue, f)
	s.mu.Unlock()
	s.cond.Signal()
	return true
}

// Drain reclaims the pass's still-queued tasks and runs them inline on
// the caller's goroutine, and refuses further Submits. It is the
// cancellation escape hatch: a cancelled run must not depend on pool
// workers becoming free to observe its queued blocks (all slots could
// be held indefinitely by other passes' long-lived tasks), so the run
// drains its own queue — each reclaimed task sees the cancelled
// context and completes immediately. Tasks already granted to workers
// are untouched. Safe to call concurrently with grants and repeatedly.
func (h *PassHandle) Drain() {
	s := h.s
	s.mu.Lock()
	h.draining = true
	stolen := h.queue
	h.queue = nil
	s.mu.Unlock()
	for _, f := range stolen {
		f()
	}
}

// Close deregisters the pass: its queue entries are executed inline
// (in RunCtx usage the queue is already empty — every dispatched block
// is awaited before Close — so this is a safety net for misuse), its
// label's accounting is released when the last pass sharing the label
// closes, and its deficit returns to the pool. Safe to call once.
func (h *PassHandle) Close() {
	s := h.s
	s.mu.Lock()
	if h.closed {
		s.mu.Unlock()
		return
	}
	h.closed = true
	if h.watch != nil {
		close(h.watch)
		h.watch = nil
	}
	leftover := h.queue
	h.queue = nil
	for i, p := range s.passes {
		if p == h {
			s.passes = append(s.passes[:i], s.passes[i+1:]...)
			break
		}
	}
	if lc := s.labels[h.label]; lc != nil {
		lc.handles--
		if lc.handles <= 0 {
			delete(s.labels, h.label)
		}
	}
	s.mu.Unlock()
	for _, f := range leftover {
		f()
	}
}

// shareWindowSecs is the trailing window (in one-second buckets) over
// which RecentGranted — and therefore the worker_share surfaced by
// /v1/stats — is computed. Lifetime-since-activation counters make a
// tenant that burst an hour ago look permanently dominant; a short
// window reflects who the scheduler is actually serving now.
const shareWindowSecs = 15

// labelCount aggregates scheduler accounting across the passes sharing
// one label. Entries live only while at least one pass with the label
// is registered (mirroring the admission gate's tenant-map GC), so
// label cardinality does not grow the pool.
type labelCount struct {
	handles     int
	granted     uint64 // grants since the label last became active
	grantedJoin uint64 // the JoinPass (cell-batch) subset of granted
	// buckets is a ring of per-second grant counts: buckets[sec %
	// shareWindowSecs] counts the grants of the second recorded in
	// bucketSec. Stale slots (bucketSec too old) are overwritten on
	// write and skipped on read, so no ticker is needed.
	buckets   [shareWindowSecs]uint64
	bucketSec [shareWindowSecs]int64
}

// bump records one grant at unix second now.
func (lc *labelCount) bump(now int64) {
	i := int(now % shareWindowSecs)
	if i < 0 {
		i += shareWindowSecs
	}
	if lc.bucketSec[i] != now {
		lc.bucketSec[i] = now
		lc.buckets[i] = 0
	}
	lc.buckets[i]++
}

// recent sums the grants of the trailing shareWindowSecs seconds.
func (lc *labelCount) recent(now int64) uint64 {
	var sum uint64
	for i := range lc.buckets {
		if d := now - lc.bucketSec[i]; d >= 0 && d < shareWindowSecs {
			sum += lc.buckets[i]
		}
	}
	return sum
}

// sched is the scheduler state shared by a pool's workers. It is
// separable from the Pool so tests can drive grant decisions
// deterministically without goroutines (see sched_test.go).
type sched struct {
	mu     sync.Mutex
	cond   *sync.Cond
	passes []*PassHandle
	// vclock is the virtual time of the most recent grant; newly
	// registered or reactivated passes enter here.
	vclock           float64
	totalGranted     uint64
	totalGrantedJoin uint64
	// lastSrc records, per worker id, the source mapping of the worker's
	// most recent grant (grown lazily; workers with id < 0 — tests
	// driving grants directly — are never recorded). locHits counts
	// grants whose pass matched the worker's previous mapping, locMisses
	// grants with a known mapping that switched the worker elsewhere.
	lastSrc   []uint64
	locHits   uint64
	locMisses uint64
	labels    map[string]*labelCount
	closed    bool
	// now supplies the unix second for the recent-grant window;
	// replaceable so tests can drive decay deterministically.
	now func() int64
}

func newSched() *sched {
	s := &sched{
		labels: make(map[string]*labelCount),
		now:    func() int64 { return time.Now().Unix() },
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// register adds a pass with the given label, weight (clamped to a
// minimum of 1), kind and source-mapping key (0 = unknown), entering at
// the current virtual clock.
func (s *sched) register(label string, weight int, kind PassKind, src uint64) *PassHandle {
	if weight < 1 {
		weight = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	h := &PassHandle{s: s, label: label, weight: weight, kind: kind, src: src, vtime: s.vclock}
	s.passes = append(s.passes, h)
	lc := s.labels[label]
	if lc == nil {
		lc = &labelCount{}
		s.labels[label] = lc
	}
	lc.handles++
	return h
}

// pickLocked selects the backlogged pass with the smallest virtual time
// (ties break toward the earliest-registered pass), pops its head task
// and advances its virtual time by one stride. Returns nil when no pass
// has queued work.
//
// worker is the requesting worker's id (-1 when unknown, e.g. tests
// driving grants directly). Among passes at *exactly* the minimal
// virtual time — where stride fairness is indifferent — the pick
// prefers the pass whose source mapping the worker's previous grant
// touched, so workers keep streaming warm mappings. A pass with src 0
// never matches, and an unequal vtime is never overridden: the
// tie-break can only reorder grants stride scheduling already considers
// equivalent, so proportional shares and grant determinism without
// source keys are unchanged.
func (s *sched) pickLocked(worker int) func() {
	var last uint64
	if worker >= 0 && worker < len(s.lastSrc) {
		last = s.lastSrc[worker]
	}
	var best *PassHandle
	for _, h := range s.passes {
		if len(h.queue) == 0 {
			continue
		}
		switch {
		case best == nil || h.vtime < best.vtime:
			best = h
		case h.vtime == best.vtime && last != 0 && h.src == last && best.src != last:
			best = h
		}
	}
	if best == nil {
		return nil
	}
	f := best.queue[0]
	best.queue[0] = nil
	best.queue = best.queue[1:]
	s.vclock = best.vtime
	best.vtime += 1 / float64(best.weight)
	best.granted++
	s.totalGranted++
	if worker >= 0 && best.src != 0 {
		if best.src == last {
			s.locHits++
		} else {
			s.locMisses++
		}
		if worker >= len(s.lastSrc) {
			grown := make([]uint64, worker+1)
			copy(grown, s.lastSrc)
			s.lastSrc = grown
		}
		s.lastSrc[worker] = best.src
	}
	if best.kind == JoinPass {
		s.totalGrantedJoin++
	}
	if lc := s.labels[best.label]; lc != nil {
		lc.granted++
		lc.bump(s.now())
		if best.kind == JoinPass {
			lc.grantedJoin++
		}
	}
	return f
}

// next blocks until a task is grantable (returning it) or the scheduler
// is closed with all queues drained (returning nil). Pool workers loop
// on it, passing their worker id for the locality tie-break.
func (s *sched) next(worker int) func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if f := s.pickLocked(worker); f != nil {
			return f
		}
		if s.closed {
			return nil
		}
		s.cond.Wait()
	}
}

// close wakes all workers; they exit once every queue is drained.
func (s *sched) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// PassStats describes one scheduler label (tenant) in a snapshot.
type PassStats struct {
	// Label is the pass label (the tenant for engine-owned pools).
	Label string
	// Weight is the label's scheduling weight.
	Weight int
	// Passes is how many passes with this label are registered.
	Passes int
	// JoinPasses is how many of those are cell-batch join sweeps.
	JoinPasses int
	// Queued is the number of tasks (blocks and cell batches) waiting
	// for a worker grant.
	Queued int
	// QueuedBatches is the join-sweep (cell-batch) subset of Queued.
	QueuedBatches int
	// Granted counts grants to the label's passes since the label last
	// became active (entries are released when the last pass sharing
	// the label closes).
	Granted uint64
	// GrantedBatches is the join-sweep (cell-batch) subset of Granted.
	GrantedBatches uint64
	// RecentGranted counts the label's grants over the trailing
	// shareWindowSecs seconds — the windowed counter worker shares are
	// derived from, so a long-lived tenant's ancient bursts stop
	// skewing its reported share.
	RecentGranted uint64
	// Deficit is the scheduler's virtual clock minus the label's
	// smallest pass virtual time: how far behind its proportional share
	// the label is (larger = served sooner).
	Deficit float64
}

// SchedStats is a point-in-time snapshot of the pool's weighted
// scheduler.
type SchedStats struct {
	// TotalGranted counts every grant since the pool started.
	TotalGranted uint64
	// TotalGrantedBatches is the join cell-batch subset of TotalGranted.
	TotalGrantedBatches uint64
	// LocalityHits counts grants (of passes with a known source mapping)
	// that kept the worker on the mapping its previous grant touched;
	// LocalityMisses counts the ones that switched it. Their ratio is
	// the dispatch-locality gauge surfaced by /v1/stats.
	LocalityHits   uint64
	LocalityMisses uint64
	// Passes aggregates the currently registered passes by label.
	Passes []PassStats
}

// snapshot aggregates the registered passes by label, preserving
// registration order of each label's first pass.
func (s *sched) snapshot() SchedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SchedStats{
		TotalGranted:        s.totalGranted,
		TotalGrantedBatches: s.totalGrantedJoin,
		LocalityHits:        s.locHits,
		LocalityMisses:      s.locMisses,
	}
	now := s.now()
	byLabel := make(map[string]int, len(s.labels))
	for _, h := range s.passes {
		i, ok := byLabel[h.label]
		if !ok {
			i = len(st.Passes)
			byLabel[h.label] = i
			lc := s.labels[h.label]
			st.Passes = append(st.Passes, PassStats{
				Label:          h.label,
				Weight:         h.weight,
				Granted:        lc.granted,
				GrantedBatches: lc.grantedJoin,
				RecentGranted:  lc.recent(now),
			})
		}
		ps := &st.Passes[i]
		ps.Passes++
		ps.Queued += len(h.queue)
		if h.kind == JoinPass {
			ps.JoinPasses++
			ps.QueuedBatches += len(h.queue)
		}
		if d := s.vclock - h.vtime; d > ps.Deficit {
			ps.Deficit = d
		}
	}
	return st
}
