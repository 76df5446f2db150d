// Package join implements AT-GIS's partition-based spatial-merge join
// (paper §4.5, Fig. 8). The join pipeline consumes the spatial partitions
// produced by the first pass and emits joined pairs:
//
//	MBR COMPARE → dedup → SORT → PARSER/BUFFER → REFINE
//
// MBR COMPARE finds candidate pairs per partition cell; SORT orders
// candidates by the file offset of one side so objects stay resident
// briefly; PARSER/BUFFER re-parses geometries from the raw input on
// demand with a bounded cache; REFINE runs the exact predicate. The
// duplicates that non-disjoint partitions introduce are dropped before
// refinement, not after it as in the paper's final offset-pair sort: a
// pair is considered only by the cell that owns the reference point of
// its MBR intersection, so no duplicate is ever reparsed or refined.
// SORT never runs and no candidate list is built: a cell fills in consume
// order, so a loop over its A entries refining each one's candidates as
// they appear holds A order by construction, each A geometry reparsed once.
//
// There is one MBR compare: each A entry is one kernel.BoxFilterBatch
// sweep over its cell's B boxes, whatever the cell holds. REFINE is
// kernel.IntersectsPreparedA when Config.KernelRefine is set (every
// engine join), Config.Predicate otherwise. Both kernels are bit-identical
// to their scalar forms in internal/geom, which FuzzKernelVsScalar checks
// per call and the root package's TestKernelDifferential checks end to
// end, against NestedLoop(…, geom.Intersects).
//
// There is one sweep. RunStream emits pairs in nondecreasing owning-cell
// order, deterministically whatever the worker count; Run collects the
// same stream and sorts it by offset pair. Engine.Join/JoinStream wrap
// them; atgis-serve's POST /v1/join streams RunStream's pairs straight
// onto the wire.
//
// The sweep is a pipeline.RunCtx run over the grid's cells: the cell range
// is carved into batches of Config.BatchCells cells, each batch is one
// block — one task on a pipeline.Pool's weighted dispatch queue (the
// shared pool Config.Handle is registered with, or a pool of
// Config.Workers started for this sweep alone) — and the ordered fold
// emits each batch's pairs in turn. So a join is preemptible,
// weight-schedulable and cancellable at the same quantum as query passes:
// a worker returns to the pool after every batch instead of being held
// for the whole sweep. Per-batch scratch state (the reparse cache, the
// kernel scratch) is pooled, and a reacquired state keeps its warm cache
// (cache handoff across batches); pair buffers recycle from the fold back
// to the workers. Partitions store only MBRs and
// byte offsets (paper §4.5) — geometry is re-parsed from the raw input
// through the Reparser, keeping the partition phase's memory footprint
// proportional to feature count, not geometry size.
package join

import (
	"context"
	"math/bits"
	"sort"
	"sync"

	"atgis/internal/faultinject"
	"atgis/internal/geom"
	"atgis/internal/geom/kernel"
	"atgis/internal/partition"
	"atgis/internal/pipeline"
)

// Pair is one joined result: the ids and offsets of both sides.
type Pair struct {
	AID, BID   int64
	AOff, BOff int64
}

// Reparser reconstructs a geometry from its offset in the raw input.
// Format packages provide implementations (WKT line re-parse, GeoJSON
// object re-parse).
type Reparser func(off int64) (geom.Geometry, error)

// defaultBatchCells is the sweep's scheduling quantum when
// Config.BatchCells is zero: fine grids (hundreds of thousands of
// mostly-empty cells) do not pay one task dispatch per cell, while the
// quantum stays small enough that a concurrent pass waits at most one
// batch for its next worker grant.
const defaultBatchCells = 256

// Config controls join execution.
type Config struct {
	// Ctx, when non-nil, cancels the join: a cell stops within 64 of its
	// A entries and Run/RunStream return the context's error.
	Ctx context.Context
	// Predicate refines candidate pairs (ST_Intersects in Table 3) when
	// KernelRefine is off.
	Predicate func(a, b geom.Geometry) bool
	// ReparseA / ReparseB rebuild geometries by offset.
	ReparseA, ReparseB Reparser
	// Workers sizes the pool a sweep without a Handle starts for itself
	// and closes when it ends (0 = GOMAXPROCS). Ignored with a Handle:
	// the handle's pool bounds concurrency.
	Workers int
	// Handle, when set, feeds each cell batch into a shared
	// pipeline.Pool's weighted dispatch queue: the sweep contends for
	// the same bounded worker set as query passes and is granted
	// workers batch by batch (preemptible at the batch quantum). The
	// caller registers and closes the handle.
	Handle *pipeline.PassHandle
	// BatchCells is the number of grid cells per sweep batch (0 = 256).
	BatchCells int
	// KernelRefine chooses the REFINE stage: kernel.IntersectsPreparedA
	// with the A geometry's edge slab filled once per A entry, instead
	// of Predicate. It stands for geom.Intersects (the predicate of
	// every engine join) and is bit-identical to it. The MBR compare
	// runs through kernel.BoxFilterBatch either way.
	KernelRefine bool
	// CellLo / CellHi restrict the sweep to the grid-cell band
	// [CellLo, CellHi) — the join's unit of horizontal sharding: the
	// reference-point dedup makes each pair owned by exactly one cell, so
	// bands that tile [0, NumCells) partition the pair set exactly, and
	// ordered bands concatenate into the full-sweep cell order. CellHi
	// zero means NumCells (the whole grid).
	CellLo, CellHi int
}

// Stats reports join-phase measurements.
type Stats struct {
	Candidates int64 // MBR-intersecting pairs refined (duplicates excluded)
	Refined    int64 // pairs that passed refinement: the result pairs
	// Duplicates counts MBR-intersecting pairs a cell dropped before
	// refinement because another cell owns their reference point.
	Duplicates int64
	Reparses   int64 // geometry re-parses performed
	CacheHits  int64
}

// joinCell joins one partition cell, appending its pairs to out: one
// loop over the cell's A entries in cell order, each refining its owned
// MBR hits on the B side, in cell order, as they appear. The MBR compare
// is one kernel.BoxFilterBatch sweep per A entry over the B side's boxes
// in ks.Boxes (bit-identical to Box.Intersects); REFINE runs
// kernel.IntersectsPreparedA when cfg.KernelRefine, cfg.Predicate
// otherwise. ctx is checked every 64 A entries.
func joinCell(ctx context.Context, a, b *partition.Set, cfg Config, c int, cache geomCache, ks *kernel.Scratch, out []Pair, st *Stats) ([]Pair, error) {
	ea := a.Cell(c)
	eb := b.Cell(c)
	if len(ea) == 0 || len(eb) == 0 {
		return out, nil
	}
	// Once the cell is processed the hash map is cleared (paper §4.5),
	// which bounds the PARSER/BUFFER memory by one cell's B side.
	defer clear(cache)
	// The B side's boxes fill a slab once per cell; every A entry tests
	// all of them in one branch-free sweep.
	ks.Boxes.Reset()
	for _, y := range eb {
		ks.Boxes.Append(y.Box)
	}
	for i, x := range ea {
		if i&63 == 0 && ctx.Err() != nil {
			return out, ctx.Err()
		}
		kernel.BoxFilterBatch(x.Box, &ks.Boxes, &ks.Hits)
		var ga geom.Geometry // reparsed at x's first owned hit
		// MBR hits, 64 B entries per word, in cell order.
		for w, word := range ks.Hits {
			for ; word != 0; word &= word - 1 {
				y := eb[w<<6+bits.TrailingZeros64(word)]
				if !ownsPair(a.Grid, c, x.Box, y.Box) {
					// Another cell owns this pair's reference point and
					// will report it; skip the duplicate before refinement.
					st.Duplicates++
					continue
				}
				st.Candidates++
				if ga == nil {
					var err error
					if ga, err = cfg.ReparseA(x.Off); err != nil {
						return out, err
					}
					st.Reparses++
					if cfg.KernelRefine {
						// One slab fill per A entry: the prepared A side
						// amortises across every B it meets.
						ks.A.Reset()
						ks.A.AppendGeometry(ga)
					}
				}
				gb, hit := cache[y.Off]
				if hit {
					st.CacheHits++
				} else {
					var err error
					if gb, err = cfg.ReparseB(y.Off); err != nil {
						return out, err
					}
					cache[y.Off] = gb
					st.Reparses++
				}
				// REFINE: the exact predicate.
				var refined bool
				if cfg.KernelRefine {
					refined = kernel.IntersectsPreparedA(ga, &ks.A, gb)
				} else {
					refined = cfg.Predicate(ga, gb)
				}
				if refined {
					out = append(out, Pair{AID: x.ID, BID: y.ID, AOff: x.Off, BOff: y.Off})
					st.Refined++
				}
			}
		}
	}
	return out, nil
}

// ownsPair reports whether cell c contains the reference point — the
// lower-left corner of the MBR intersection — of a candidate pair. The
// intersection is non-empty (the MBRs intersect) and the point lies in
// both MBRs, so exactly one cell owns each pair and that cell holds both
// entries.
func ownsPair(g partition.Grid, c int, a, b geom.Box) bool {
	rx := a.MinX
	if b.MinX > rx {
		rx = b.MinX
	}
	ry := a.MinY
	if b.MinY > ry {
		ry = b.MinY
	}
	return g.CellOf(rx, ry) == c
}

// geomCache is the PARSER/BUFFER hash map for the non-adjacent side. The
// map itself is retained across cells and batches — scratch states
// recycle — so only its entries are dropped per cell.
type geomCache map[int64]geom.Geometry

// Run executes the join over two partition sets built on the same grid,
// returning the complete pair set sorted by (AOff, BOff): RunStream's
// pairs, collected.
func Run(a, b *partition.Set, cfg Config) ([]Pair, Stats, error) {
	var out []Pair
	st, err := RunStream(a, b, cfg, func(p Pair) { out = append(out, p) })
	if err != nil {
		return nil, st, err
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].AOff != out[j].AOff {
			return out[i].AOff < out[j].AOff
		}
		return out[i].BOff < out[j].BOff
	})
	return out, st, nil
}

// RunStream executes the join, calling emit for every joined pair. A pair
// is reported only by the cell owning the lower-left corner of its MBR
// intersection, and the other cells drop it before refinement, so the
// stream is duplicate-free with no global sort. Pairs arrive in
// nondecreasing owning-cell order — the same sequence whatever the worker
// count or batch size — and emit is called from one goroutine, the
// caller's.
//
// The sweep is one pipeline.RunCtx run over the band's cells: batches are
// refined on pool workers, and the run's ordered fold emits them in turn.
// A consumer that blocks in emit therefore holds the batch being emitted
// plus at most RunCtx's in-flight window of 3·workers+4 finished batches,
// and no further batch starts until it returns.
func RunStream(a, b *partition.Set, cfg Config, emit func(Pair)) (Stats, error) {
	if cfg.Ctx == nil {
		cfg.Ctx = context.Background() //lint:atgis-allow ctxflow a nil Config.Ctx asks for an uncancellable sweep (library callers, probes), not a request path
	}
	if cfg.Handle == nil {
		// No pool to share: the sweep runs on one of its own, the same
		// dispatch path at a run's scope.
		pool := pipeline.NewPool(cfg.Workers)
		defer pool.Close()
		cfg.Handle = pool.Register(cfg.Ctx, "", 1, pipeline.JoinPass, 0)
		defer cfg.Handle.Close()
	}
	batch := cfg.BatchCells
	if batch < 1 {
		batch = defaultBatchCells
	}
	// The swept band: the whole grid unless a shard restricted it. Block
	// positions are band-relative cells.
	cells := a.Grid.NumCells()
	lo, hi := cfg.CellLo, cfg.CellHi
	if hi <= 0 || hi > cells {
		hi = cells
	}
	if lo < 0 {
		lo = 0
	}
	if lo > hi {
		lo = hi
	}

	// A reparse error fails the run from the fold, as a block plan's
	// failed fold does: nothing after its batch is emitted.
	ctx, cancel := context.WithCancel(cfg.Ctx)
	defer cancel()
	s := &sweep{a: a, b: b, cfg: cfg, ctx: ctx}
	var failed error
	_, err := pipeline.RunCtx(ctx, int64(hi-lo),
		pipeline.FixedSplitter{BlockSize: batch}.Cuts,
		cfg.Handle,
		func(bl pipeline.Block) batchPairs {
			return s.batch(bl.Index, lo+int(bl.Start), lo+int(bl.End))
		},
		func(_ pipeline.Block, r batchPairs) {
			for _, p := range r.pairs {
				emit(p)
			}
			s.putBuf(r.pairs)
			if r.err != nil {
				failed = r.err
				cancel()
			}
		},
	)
	st := s.finish()
	if failed != nil {
		return st, failed
	}
	return st, err
}

// batchPairs is one batch's result: its pairs in cell order, and the
// reparse error or cancellation that stopped it, if any.
type batchPairs struct {
	pairs []Pair
	err   error
}

// sweep is the shared state of one cell sweep: the pooled scratch states
// and pair buffers the batches draw from.
type sweep struct {
	a, b *partition.Set
	cfg  Config
	ctx  context.Context

	mu   sync.Mutex
	free []*sweepState // reusable scratch states
	all  []*sweepState // every state ever created (merged at the end)
	// bufs recycles pair buffers: a batch fills one, the fold emits it
	// and hands it back, so a long join reuses as many buffers as it has
	// batches in flight instead of allocating one per batch.
	bufs [][]Pair
}

// sweepState is the per-batch scratch: the reparse cache, the kernel
// slabs and the local stats. States are pooled and handed from batch to
// batch, so a reacquired state keeps its warm geometry cache; the pool
// is bounded by the batches in flight.
type sweepState struct {
	cache geomCache
	st    Stats
	// kern is the pooled kernel scratch, acquired by the first batch
	// this state runs and released by finish (sweep states outlive
	// individual batches, so the slab high-water marks carry across
	// batches too).
	kern *kernel.Scratch
}

func (s *sweep) acquire() *sweepState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.free); n > 0 {
		st := s.free[n-1]
		s.free = s.free[:n-1]
		return st
	}
	st := &sweepState{cache: make(geomCache)}
	s.all = append(s.all, st)
	return st
}

func (s *sweep) release(st *sweepState) {
	s.mu.Lock()
	s.free = append(s.free, st)
	s.mu.Unlock()
}

// getBuf pops a recycled pair buffer (nil when none is free — the batch
// then grows a fresh one that joins the pool after emission).
func (s *sweep) getBuf() []Pair {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.bufs); n > 0 {
		b := s.bufs[n-1]
		s.bufs = s.bufs[:n-1]
		return b
	}
	return nil
}

// putBuf returns an emitted pair buffer to the pool.
func (s *sweep) putBuf(b []Pair) {
	if cap(b) == 0 {
		return
	}
	s.mu.Lock()
	s.bufs = append(s.bufs, b[:0])
	s.mu.Unlock()
}

// batch refines the cells [start, end) — one scheduling quantum — into a
// recycled pair buffer. It runs on a pool worker inside RunCtx's fault
// envelope, so a panic in the predicate or a memory fault in a reparse
// (source truncated under its mmap) fails this sweep with a typed error
// at site "join-batch"; the pass's label attributes it (the tenant on an
// engine's sweeps; "" on a run-scoped pool).
func (s *sweep) batch(idx, start, end int) (r batchPairs) {
	st := s.acquire()
	defer s.release(st)
	if st.kern == nil {
		st.kern = kernel.AcquireScratch() //lint:atgis-allow pairedrelease the scratch outlives this batch by design: finish releases every state's scratch exactly once
	}
	label := s.cfg.Handle.Label()
	faultinject.Fire("join.batch", label, int64(idx))
	if s.cfg.KernelRefine {
		faultinject.Fire("kernel.batch", label, int64(idx))
	}
	r.pairs = s.getBuf()
	for c := start; c < end && r.err == nil; c++ {
		r.pairs, r.err = joinCell(s.ctx, s.a, s.b, s.cfg, c, st.cache, st.kern, r.pairs, &st.st)
	}
	return r
}

// finish merges every scratch state's stats and releases their kernel
// scratch; the run is over, so no batch holds a state.
func (s *sweep) finish() Stats {
	var st Stats
	for _, ss := range s.all {
		st.Candidates += ss.st.Candidates
		st.Refined += ss.st.Refined
		st.Duplicates += ss.st.Duplicates
		st.Reparses += ss.st.Reparses
		st.CacheHits += ss.st.CacheHits
		kernel.ReleaseScratch(ss.kern)
		ss.kern = nil
	}
	return st
}

// NestedLoop is the oracle join used by tests: every pair of features
// compared directly.
func NestedLoop(as, bs []geom.Feature, pred func(a, b geom.Geometry) bool) []Pair {
	var out []Pair
	for _, fa := range as {
		for _, fb := range bs {
			if fa.Geom == nil || fb.Geom == nil {
				continue
			}
			if pred(fa.Geom, fb.Geom) {
				out = append(out, Pair{AID: fa.ID, BID: fb.ID, AOff: fa.Offset, BOff: fb.Offset})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].AOff != out[j].AOff {
			return out[i].AOff < out[j].AOff
		}
		return out[i].BOff < out[j].BOff
	})
	return out
}
