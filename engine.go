package atgis

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"atgis/internal/admission"
	"atgis/internal/geojson"
	"atgis/internal/geom"
	"atgis/internal/join"
	"atgis/internal/partition"
	"atgis/internal/pipeline"
	"atgis/internal/query"
	"atgis/internal/wkt"
)

// EngineConfig sizes an Engine.
type EngineConfig struct {
	// Workers is the size of the shared worker pool (0 = GOMAXPROCS).
	// All concurrent queries on the engine share these workers.
	Workers int
	// BlockSize is the default block size in bytes for queries that do
	// not set Options.BlockSize (0 = 1 MiB).
	BlockSize int

	// MaxInFlight, when positive, enables admission control: at most
	// this many queries (Execute, Stream, Join, JoinStream, Combined,
	// CollectFeatures passes) run concurrently; further queries wait in
	// per-tenant FIFO queues served by weighted round-robin, so one
	// flooding tenant cannot starve the others. Zero disables admission
	// (the pool still bounds CPU, but not queueing).
	MaxInFlight int
	// TenantQueue caps each tenant's waiting queries when MaxInFlight
	// is set (0 = 16). A query arriving with its tenant's queue full
	// fails fast with an error matching admission.ErrOverloaded that
	// carries a Retry-After estimate.
	TenantQueue int
	// TenantWeights optionally assigns per-tenant weights (absent
	// tenants weigh 1). Tag query contexts with WithTenant. Weights
	// govern both fairness layers: the admission gate's round-robin
	// over queued queries, and the worker pool's block-dispatch
	// scheduler, which grants freed workers to admitted passes in
	// proportion to their tenant's weight. They apply to the pool even
	// when MaxInFlight is zero (no admission control).
	//
	// Weights apportion workers at grant instants. Every granted task
	// is one scheduling quantum — a pipeline block for queries, a cell
	// batch for join sweeps — so a heavy pass of either kind defers
	// other tenants by at most one quantum per worker before the
	// scheduler reconsiders who is furthest behind.
	TenantWeights map[string]int

	// Sidecar controls use of persistent per-source structural indexes
	// (`<path>.atgx` next to each mapped file): SidecarOff (default)
	// ignores them, SidecarRead uses a valid existing sidecar to run
	// warm passes, SidecarReadWrite additionally records the tape
	// during the first successful cold pass and persists it. Sidecars
	// only apply to OpenMapped sources; a missing, stale or corrupt
	// sidecar always degrades to a cold pass.
	Sidecar SidecarMode
}

// defaultTenantQueue is the per-tenant queue cap when admission is
// enabled without an explicit TenantQueue.
const defaultTenantQueue = 16

// WithTenant tags ctx with a tenant name for admission accounting and
// fairness. Untagged contexts share the anonymous tenant "".
func WithTenant(ctx context.Context, tenant string) context.Context {
	return admission.WithTenant(ctx, tenant)
}

// ErrOverloaded is the sentinel matched (errors.Is) by admission
// rejections; the concrete error is *OverloadError. Re-exported from
// the internal admission package so callers outside this module can
// match rejections.
var ErrOverloaded = admission.ErrOverloaded

// OverloadError is the admission-rejection error (errors.As), carrying
// the tenant, its queue depth and a Retry-After estimate.
type OverloadError = admission.OverloadError

// AdmissionStats is the admission gate's snapshot type, carried in
// EngineStats.Admission.
type AdmissionStats = admission.Stats

// ErrSourceFault is the sentinel matched (errors.Is) when a pass died
// on a memory fault while reading its input — typically the mmap'd
// source file was truncated or deleted under the mapping (SIGBUS). The
// fault is confined to the failing pass: the engine, its pool, and all
// concurrent queries keep running. The concrete error is
// *SourceFaultError. Serving layers should mark the source unhealthy
// and keep the process up.
var ErrSourceFault = pipeline.ErrSourceFault

// SourceFaultError is the typed per-pass memory-fault error (errors.As),
// carrying the pass label, the pipeline phase, the block or batch index
// and the faulting address.
type SourceFaultError = pipeline.SourceFaultError

// PassPanicError is the typed error (errors.As) a query or join returns
// when a panic — a parser bug on malformed bytes, adversarial geometry —
// was recovered inside its pass. The panic is confined: only the owning
// pass fails; the engine, the shared pool and every concurrent tenant's
// pass keep running. It carries the pass label (tenant), the phase, the
// block or batch index, the panic value and the captured stack.
type PassPanicError = pipeline.PassPanicError

// Engine executes queries. It owns a persistent worker pool shared by
// every query it runs, so many concurrent requests against one or more
// open Sources contend for a bounded set of processing threads instead
// of each spawning their own; parser machines recycle through pools
// across blocks and across queries.
//
// An Engine is safe for concurrent use. NewEngine is the only way to
// build one — the pool's size is the one answer to how many workers ran a
// pass, so a core-count sweep builds an engine per point — and Close
// releases the pool; an Engine that NewEngine did not build has no pool
// and fails every query like a closed one (ErrEngineClosed).
type Engine struct {
	blockSize int
	pool      *pipeline.Pool
	gate      *admission.Gate // nil = no admission control
	weights   map[string]int  // tenant → pool-scheduling weight
	sidecar   SidecarMode
	closed    atomic.Bool
}

// NewEngine starts an engine with a shared worker pool and, when
// cfg.MaxInFlight is positive, an admission gate in front of query
// execution.
func NewEngine(cfg EngineConfig) *Engine {
	e := &Engine{blockSize: cfg.BlockSize, pool: pipeline.NewPool(cfg.Workers), sidecar: cfg.Sidecar}
	if len(cfg.TenantWeights) > 0 {
		// Private copy: the gate and the pool scheduler read these on
		// every pass, and the caller's map must stay free to mutate
		// after NewEngine.
		e.weights = make(map[string]int, len(cfg.TenantWeights))
		for t, w := range cfg.TenantWeights {
			e.weights[t] = w
		}
	}
	if cfg.MaxInFlight > 0 {
		queue := cfg.TenantQueue
		if queue == 0 {
			queue = defaultTenantQueue
		}
		e.gate = admission.New(admission.Config{
			MaxInFlight: cfg.MaxInFlight,
			MaxQueued:   queue,
			Weights:     e.weights,
		})
	}
	return e
}

// admit passes the query through the engine's admission gate (if any),
// returning the release to defer. The tenant comes from ctx
// (WithTenant); engines without admission admit immediately.
func (e *Engine) admit(ctx context.Context) (func(), error) {
	if e.gate == nil {
		return func() {}, nil
	}
	return e.gate.Acquire(ctx, admission.Tenant(ctx))
}

// PoolStats reports shared-pool utilisation.
type PoolStats struct {
	// Workers is the pool size: the Stats.Workers of every pass the
	// engine runs.
	Workers int `json:"workers"`
	// Busy is the number of workers currently executing a task.
	Busy int `json:"busy"`
}

// SchedulerTenantStats describes one tenant currently registered with
// the pool's weighted task-dispatch scheduler.
type SchedulerTenantStats struct {
	// Weight is the tenant's scheduling weight.
	Weight int `json:"weight"`
	// Passes is the tenant's currently registered passes (query
	// pipelines and join sweeps).
	Passes int `json:"passes"`
	// JoinPasses is how many of those passes are cell-batch join
	// sweeps.
	JoinPasses int `json:"join_passes,omitempty"`
	// QueuedBlocks counts tasks (blocks and cell batches) waiting for a
	// worker grant.
	QueuedBlocks int `json:"queued_blocks"`
	// QueuedCellBatches is the join-sweep subset of QueuedBlocks.
	QueuedCellBatches int `json:"queued_cell_batches,omitempty"`
	// GrantedBlocks counts tasks granted to the tenant's passes since
	// the tenant last became active (the entry is dropped when its last
	// pass deregisters, like the admission gate's tenant map).
	GrantedBlocks uint64 `json:"granted_blocks"`
	// GrantedCellBatches is the join-sweep subset of GrantedBlocks.
	GrantedCellBatches uint64 `json:"granted_cell_batches,omitempty"`
	// RecentGrantedBlocks counts the tenant's grants over the trailing
	// share window (~15 s) — what WorkerShare is computed from.
	RecentGrantedBlocks uint64 `json:"recent_granted_blocks"`
	// WorkerShare is the tenant's fraction of the grants made to the
	// currently active tenants over the trailing share window — the
	// observed recent worker share the weights are converging, rather
	// than a share-since-activation average that ancient bursts skew.
	WorkerShare float64 `json:"worker_share"`
	// Deficit is how far behind its proportional share the tenant is,
	// in weighted task units (the scheduler's virtual clock minus the
	// tenant's virtual time; larger = served sooner).
	Deficit float64 `json:"deficit"`
}

// SchedulerStats snapshots the worker pool's weighted scheduler:
// admission decides whether a query runs, this scheduler decides which
// admitted pass receives each freed worker.
type SchedulerStats struct {
	// TotalGrantedBlocks counts every task dispatched by the pool
	// since the engine started (blocks and cell batches).
	TotalGrantedBlocks uint64 `json:"total_granted_blocks"`
	// TotalGrantedCellBatches is the join cell-batch subset of
	// TotalGrantedBlocks.
	TotalGrantedCellBatches uint64 `json:"total_granted_cell_batches"`
	// LocalityHits counts grants that kept a worker on the source
	// mapping its previous grant streamed; LocalityMisses counts grants
	// that switched it. Only grants of passes with a known mapping are
	// counted, so hits/(hits+misses) gauges how often the scheduler's
	// locality tie-break (plus run overlap) preserves warm mappings.
	LocalityHits   uint64 `json:"locality_hits"`
	LocalityMisses uint64 `json:"locality_misses"`
	// Tenants maps each tenant with registered passes to its live
	// scheduling state; empty when the pool is idle.
	Tenants map[string]SchedulerTenantStats `json:"tenants,omitempty"`
}

// EngineStats is a point-in-time operational snapshot of an engine,
// surfaced by atgis-serve's GET /v1/stats.
type EngineStats struct {
	Pool PoolStats `json:"pool"`
	// Admission is nil when admission control is disabled.
	Admission *AdmissionStats `json:"admission,omitempty"`
	// Scheduler is the pool's weighted scheduler; every engine has one.
	Scheduler *SchedulerStats `json:"scheduler,omitempty"`
}

// Stats snapshots pool utilisation, the weighted scheduler and
// admission-queue state.
func (e *Engine) Stats() EngineStats {
	var st EngineStats
	if e.pool == nil {
		return st // not built by NewEngine: nothing to report
	}
	st.Pool = PoolStats{Workers: e.pool.Size(), Busy: e.pool.Busy()}
	snap := e.pool.SchedSnapshot()
	sched := &SchedulerStats{
		TotalGrantedBlocks:      snap.TotalGranted,
		TotalGrantedCellBatches: snap.TotalGrantedBatches,
		LocalityHits:            snap.LocalityHits,
		LocalityMisses:          snap.LocalityMisses,
	}
	// Shares are computed over the trailing window, not since
	// activation: a tenant that burst minutes ago and has been
	// quiet since should not read as holding the pool today.
	var recentGrants uint64
	for _, p := range snap.Passes {
		recentGrants += p.RecentGranted
	}
	for _, p := range snap.Passes {
		ts := SchedulerTenantStats{
			Weight:              p.Weight,
			Passes:              p.Passes,
			JoinPasses:          p.JoinPasses,
			QueuedBlocks:        p.Queued,
			QueuedCellBatches:   p.QueuedBatches,
			GrantedBlocks:       p.Granted,
			GrantedCellBatches:  p.GrantedBatches,
			RecentGrantedBlocks: p.RecentGranted,
			Deficit:             p.Deficit,
		}
		if recentGrants > 0 {
			ts.WorkerShare = float64(p.RecentGranted) / float64(recentGrants)
		}
		if sched.Tenants == nil {
			sched.Tenants = make(map[string]SchedulerTenantStats, len(snap.Passes))
		}
		sched.Tenants[p.Label] = ts
	}
	st.Scheduler = sched
	if e.gate != nil {
		snap := e.gate.Snapshot()
		st.Admission = &snap
	}
	return st
}

// Close stops the engine's worker pool. Queries must not be in flight;
// further queries on the engine fail.
func (e *Engine) Close() error {
	if e.closed.CompareAndSwap(false, true) && e.pool != nil {
		e.pool.Close()
	}
	return nil
}

// ErrEngineClosed is returned by queries on a closed engine, and on an
// Engine that NewEngine did not build: no pool is no engine.
var ErrEngineClosed = fmt.Errorf("atgis: engine closed")

func (e *Engine) check() error {
	if e.pool == nil || e.closed.Load() {
		return ErrEngineClosed
	}
	return nil
}

// weightFor resolves the pool-scheduling weight of a tenant: the
// admission gate's weight when admission is enabled (so both fairness
// layers share one accounting), else the engine's own TenantWeights
// copy; 1 everywhere else.
func (e *Engine) weightFor(tenant string) int {
	if e.gate != nil {
		return e.gate.Weight(tenant)
	}
	if w, ok := e.weights[tenant]; ok && w > 0 {
		return w
	}
	return 1
}

// register is the one place a pass reaches the pool: a block plan
// (QueryPass) or a join sweep (JoinPass) over data registers with the
// weighted scheduler under ctx's tenant and weight, and the caller closes
// the handle when the pass ends — on completion and on cancellation alike
// — returning its share to the pool. data's mapping identity becomes the
// pass's scheduler locality key. Registering with ctx also arms the
// drain-on-cancel watcher: a cancelled pass must not wait for pool
// workers to free up before its queued tasks can run — drained tasks see
// the cancelled context and return immediately.
func (e *Engine) register(ctx context.Context, kind pipeline.PassKind, data []byte) *pipeline.PassHandle {
	tenant := admission.Tenant(ctx)
	return e.pool.Register(ctx, tenant, e.weightFor(tenant), kind, pipeline.SourceKey(data))
}

// opts applies the engine's defaults to per-query options.
func (e *Engine) opts(opt Options) Options {
	if opt.BlockSize == 0 && e.blockSize > 0 {
		opt.BlockSize = e.blockSize
	}
	return opt
}

// Query executes a single-pass containment or aggregation query (Fig. 6:
// parse/extract → transform/filter → aggregate) in one parallel pass
// over the raw input of src. It is the one-shot form of
// Prepare + Execute.
func (e *Engine) Query(ctx context.Context, src Source, spec *query.Spec, opt Options) (*Result, error) {
	p, err := e.Prepare(spec, opt)
	if err != nil {
		return nil, err
	}
	return p.Execute(ctx, src)
}

// CollectFeatures parses the whole source into features (used by the
// baseline engines, which require loaded data — the phase AT-GIS skips).
func (e *Engine) CollectFeatures(ctx context.Context, src Source, opt Options) ([]geom.Feature, error) {
	if err := e.check(); err != nil {
		return nil, err
	}
	release, err := e.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	opt = e.opts(opt)
	var feats []geom.Feature
	_, err = wholePass(ctx, e, src, opt, &geojson.Config{PropKeys: opt.PropKeys},
		func(f geojson.FeatureOut) { feats = append(feats, f.Feature) })
	if err != nil {
		return nil, err
	}
	sort.Slice(feats, func(i, j int) bool { return feats[i].Offset < feats[j].Offset })
	return feats, nil
}

// Join executes the two-pass PBSM join (Fig. 6 then Fig. 8) over src and
// returns the pair set sorted by (AOff, BOff): JoinStream's sweep, with
// the same duplicate-free pairs and the same JoinStats, collected.
func (e *Engine) Join(ctx context.Context, src Source, spec JoinSpec, opt Options) (*JoinResult, error) {
	return e.joinAdmitted(ctx, src, spec, opt, nil)
}

// joinAdmitted is Join (emit nil) and JoinStream's producer body: the
// two passes inside one admission slot.
func (e *Engine) joinAdmitted(ctx context.Context, src Source, spec JoinSpec, opt Options, emit func(join.Pair)) (*JoinResult, error) {
	// Check before admitting (like every other entry point): a closed
	// engine must report ErrEngineClosed, not occupy a slot and risk
	// being misreported as overload.
	if err := e.check(); err != nil {
		return nil, err
	}
	release, err := e.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	jr, _, err := e.join(ctx, src, spec, opt, emit)
	return jr, err
}

// join runs the partition pass and then the sweep — collected and sorted
// when emit is nil, streamed to emit otherwise —
// and also returns the reparser it built, so callers that keep
// re-parsing joined objects (Combined's union aggregate) reuse it: for
// OSM XML the reparser costs a full parallel pass to build. The caller
// admits: admission must span everything the caller does with the
// reparser, not just the join passes.
func (e *Engine) join(ctx context.Context, src Source, spec JoinSpec, opt Options, emit func(join.Pair)) (*JoinResult, join.Reparser, error) {
	if err := e.check(); err != nil {
		return nil, nil, err
	}
	opt = e.opts(opt)
	merged, extent, stats, err := e.joinPartitionPhase(ctx, src, &spec, opt)
	if err != nil {
		return nil, nil, err
	}
	reparse, err := e.reparser(ctx, src, opt)
	if err != nil {
		return nil, nil, err
	}
	// The sweep's cell-batch tasks feed the pool's weighted dispatch queue,
	// so concurrent joins and queries contend for the same bounded worker
	// set at the same scheduling quantum: a worker returns to the pool
	// after every batch, making the join preemptible by other passes and
	// weight-schedulable mid-sweep. A streaming-join consumer that stalls
	// without calling Close stops the sweep after the in-flight batch
	// window; no worker waits on it.
	handle := e.register(ctx, pipeline.JoinPass, src.Bytes())
	defer handle.Close()
	jcfg := join.Config{
		Ctx:          ctx,
		Handle:       handle,
		Predicate:    geom.Intersects,
		KernelRefine: true,
		ReparseA:     reparse,
		ReparseB:     reparse,
		CellLo:       spec.CellLo,
		CellHi:       spec.CellHi,
	}
	jr := &JoinResult{PartitionStats: stats, Extent: extent}
	if emit == nil {
		jr.Pairs, jr.JoinStats, err = join.Run(merged.Sets[0], merged.Sets[1], jcfg)
	} else {
		jr.JoinStats, err = join.RunStream(merged.Sets[0], merged.Sets[1], jcfg, emit)
	}
	if err != nil {
		return nil, nil, err
	}
	return jr, reparse, nil
}

// MinJoinCell is the finest join partition cell, in degrees, that Join,
// JoinStream and Combined accept (a CellSize of 0 means 1°, and one wider
// than the world's 360° is refused too). The grid covers the world extent,
// so cells = (360/cell)·(180/cell): 0.1° is ≈ 6.5 M cells, and an unbounded
// value would let one call allocate a grid of billions of cells.
const MinJoinCell = 0.1

// joinPartitionPhase runs the first join pass: the parallel bounding
// pipeline plus spatial partition insertion, returning the merged
// partition sink.
func (e *Engine) joinPartitionPhase(ctx context.Context, src Source, spec *JoinSpec, opt Options) (*query.PartitionSink, geom.Box, pipeline.Stats, error) {
	switch c := spec.CellSize; {
	case c == 0:
		spec.CellSize = 1
	case !(c >= MinJoinCell && c <= 360): // NaN fails both
		return nil, geom.Box{}, pipeline.Stats{}, fmt.Errorf("atgis: join cell size %g is not between %g and 360 degrees", c, MinJoinCell)
	}
	// Geographic datasets use the world extent for the partition grid
	// (paper §5.6 sizes partitions in degrees).
	extent := geom.Box{MinX: -180, MinY: -90, MaxX: 180, MaxY: 90}
	grid := partition.NewGrid(extent, spec.CellSize)

	mask := spec.Mask
	if mask == nil {
		mask = func(*geom.Feature) uint8 { return query.SideA | query.SideB }
	}
	merged := query.NewPartitionSink(grid, spec.Store, mask)

	// Sidecar: with a validated index and a bounds-safe mask, the whole
	// partition pass collapses to a linear walk over the recorded
	// (id, offset, bbox) tape — no bytes are read. Otherwise a cold pass
	// may record the tape for next time.
	ms, ix := e.sidecarFor(src)
	boundsSafe := spec.BoundsSafeMask || spec.Mask == nil
	if ix != nil && boundsSafe {
		ms.sc.hits.Add(1)
		t0 := time.Now()
		merged.LoadTape(ix.IDs, ix.Offs, ix.Boxes)
		st := pipeline.Stats{
			Bytes:    int64(len(src.Bytes())),
			Workers:  1,
			WallTime: time.Since(t0),
		}
		return merged, extent, st, nil
	}
	rec, recDone := e.recorder(ms, ix)

	// The partition pass is the whole cold pass — PAT or FAT, like a
	// query's — minus the fused Eval: every feature bins straight into the
	// merged sink, on the fold goroutine and in input order. A bounds-safe
	// mask lets the workers skip building geometry the pass would only take
	// the bounds of; features then arrive with a nil Geom.
	cfg := &geojson.Config{PropKeys: opt.PropKeys, BoundsOnly: boundsSafe}
	// The bounds a bounds-safe mask reads, one polygon for the serial fold.
	ring := make(geom.Ring, 5)
	var bounds geom.Geometry = geom.Polygon{ring}
	stats, err := wholePass(ctx, e, src, opt, cfg, func(f geojson.FeatureOut) {
		if rec != nil {
			rec.Add(f.Feature.Offset, f.Feature.ID, f.Box)
		}
		if f.Box.IsEmpty() {
			return // no geometry, or an empty one: nothing to bin
		}
		if f.Feature.Geom == nil && spec.Mask != nil {
			// Bounds-only extraction: a bounds-safe mask may still read
			// the bounds, which it finds where the warm rebuild puts them,
			// in one polygon reused for every feature.
			copy(ring, f.Box.AsRing())
			f.Feature.Geom = bounds
		}
		merged.ConsumeBox(&f.Feature, f.Box)
	})
	recDone(err)
	if err != nil {
		return nil, extent, stats, err
	}
	return merged, extent, stats, nil
}

// Combined executes the combined query of Table 3: the perimeter filters
// compile into the partition pipeline's side mask (an object may satisfy
// both and join with itself excluded), the join refines with
// ST_Intersects, and the per-pair ST_Union area aggregation runs over
// the joined stream.
func (e *Engine) Combined(ctx context.Context, src Source, spec CombinedSpec, opt Options) (*CombinedResult, error) {
	if err := e.check(); err != nil {
		return nil, err
	}
	// Admit here rather than in the inner join: the per-pair union-area
	// aggregation below is the expensive part and must stay inside the
	// admission slot.
	release, err := e.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	mask := func(f *geom.Feature) uint8 {
		p := geom.Perimeter(f.Geom, spec.Dist)
		var m uint8
		if p > spec.T1 {
			m |= query.SideA
		}
		if p < spec.T2 {
			m |= query.SideB
		}
		return m
	}
	jr, reparse, err := e.join(ctx, src, JoinSpec{Mask: mask, CellSize: spec.CellSize}, opt, nil)
	if err != nil {
		return nil, err
	}
	out := &CombinedResult{JoinResult: jr}
	for i, p := range jr.Pairs {
		if i&255 == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if p.AOff == p.BOff {
			continue // an object satisfying both filters joins others, not itself
		}
		ga, err := reparse(p.AOff)
		if err != nil {
			return nil, err
		}
		gb, err := reparse(p.BOff)
		if err != nil {
			return nil, err
		}
		pa, okA := asPolygon(ga)
		pb, okB := asPolygon(gb)
		if !okA || !okB {
			continue // union aggregation defined on areal operands
		}
		out.Pairs++
		out.SumUnionArea += geom.SphericalArea(geom.PolyUnion(pa, pb))
	}
	return out, nil
}

// asPolygon extracts a polygon operand for the union aggregate.
func asPolygon(g geom.Geometry) (geom.Polygon, bool) {
	switch t := g.(type) {
	case geom.Polygon:
		return t, true
	case geom.MultiPolygon:
		if len(t) > 0 {
			return t[0], true
		}
	}
	return nil, false
}

// reparser returns the offset-based geometry re-parser for joins
// (paper §4.5: partitions store offsets, objects re-parse on demand) and
// for the matches a warm stream answered from the sidecar tape
// (Results.Feature).
func (e *Engine) reparser(ctx context.Context, src Source, opt Options) (join.Reparser, error) {
	data := src.Bytes()
	switch src.DataFormat() {
	case WKT:
		return func(off int64) (geom.Geometry, error) {
			end := off
			for end < int64(len(data)) && data[end] != '\n' {
				end++
			}
			f, err := wkt.ParseLine(data[off:end], off)
			if err != nil {
				return nil, err
			}
			return f.Geom, nil
		}, nil
	case GeoJSON:
		return func(off int64) (geom.Geometry, error) {
			return geojson.ReparseFeature(data, off)
		}, nil
	case OSMXML:
		// OSM XML cannot re-parse a single element in isolation (point
		// data lives in the node table, paper §5.3's random-access
		// penalty). Build an offset-keyed geometry table once.
		table := make(map[int64]geom.Geometry)
		put := func(f geojson.FeatureOut) { table[f.Feature.Offset] = f.Feature.Geom }
		if _, err := wholePass(ctx, e, src, opt, &geojson.Config{}, put); err != nil {
			return nil, err
		}
		return func(off int64) (geom.Geometry, error) {
			g, ok := table[off]
			if !ok {
				return nil, fmt.Errorf("atgis: no OSM object at offset %d", off)
			}
			return g, nil
		}, nil
	default:
		return nil, fmt.Errorf("atgis: unsupported join format %v", src.DataFormat())
	}
}
