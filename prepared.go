package atgis

import (
	"context"
	"errors"
	"fmt"
	"math"

	"atgis/internal/geojson"
	"atgis/internal/geom"
	"atgis/internal/query"
	"atgis/internal/sidecar"
)

// noWindowPushdown keeps Prepare from setting geojson.Config.Window; the
// pushdown-invariant tests set it to obtain the reference pass.
var noWindowPushdown bool

// PreparedQuery is a single-pass query (containment or aggregation)
// compiled once and executable many times, against the same or different
// Sources, from any number of goroutines concurrently. Preparation
// normalizes the spec (reference MBR, derived fields) and fuses the
// per-feature evaluation into the extraction configuration, so repeated
// executions skip that work and share no mutable state.
type PreparedQuery struct {
	engine *Engine
	spec   query.Spec // private normalized copy; read-only after Prepare
	opt    Options
	cfg    *geojson.Config // fused extraction+eval config, the same for every format
	cover  bool            // a tape pass may answer an entry inside the window from its box
}

// Prepare compiles spec for repeated execution on the engine. Only
// single-pass kinds (query.Containment, query.Aggregation) can be
// prepared; joins go through Engine.Join / Engine.JoinStream.
func (e *Engine) Prepare(spec *query.Spec, opt Options) (*PreparedQuery, error) {
	if err := e.check(); err != nil {
		return nil, err
	}
	if spec == nil {
		return nil, fmt.Errorf("atgis: nil query spec")
	}
	switch spec.Kind {
	case query.Containment, query.Aggregation:
	default:
		return nil, fmt.Errorf("atgis: cannot prepare %v query; use Engine.Join or Engine.Combined", spec.Kind)
	}
	if spec.Ref != nil && !finite(spec.Ref) {
		return nil, fmt.Errorf("atgis: the reference geometry has a coordinate that is not finite")
	}
	p := &PreparedQuery{engine: e, spec: *spec, opt: e.opts(opt)}
	p.spec.Normalize()
	p.cfg = &geojson.Config{
		PropKeys: p.opt.PropKeys,
		EvalBox: func(f *geom.Feature, box geom.Box) any {
			return query.ApplyBox(&p.spec, f, box)
		},
	}
	// Cold reject ≡ warm prune: the extraction machine drops a feature
	// whose bounding box misses the window the sidecar planner would
	// prune it against, before building its geometry.
	if win, ok := pruneWindow(&p.spec); ok && !noWindowPushdown {
		p.cfg.Window = &win
	}
	p.cover = coverWindow(&p.spec) && len(p.opt.PropKeys) == 0
	return p, nil
}

// finite reports whether every coordinate of g is finite: a reference
// with a NaN or infinite bound matches nothing, and the pass would report
// that as an answer.
func finite(g geom.Geometry) bool {
	ok := true
	g.EachPoint(func(p geom.Point) bool {
		ok = !math.IsNaN(p.X) && !math.IsInf(p.X, 0) && !math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
		return ok
	})
	return ok
}

// Spec returns a copy of the compiled (normalized) spec.
func (p *PreparedQuery) Spec() query.Spec { return p.spec }

// Execute runs the prepared query over src in one parallel pass and
// blocks until the summary is complete. Cancelling ctx stops the
// pipeline (no further blocks are dispatched or processed) and returns
// ctx's error. Execute is safe to call concurrently — including against
// the same Source — because every run keeps its state thread-local and
// merges it per run, exactly as the per-block fragments do.
//
// The pass registers with the engine pool's weighted block-dispatch
// scheduler under ctx's tenant (WithTenant):
// concurrent passes receive worker grants in proportion to their
// tenants' EngineConfig.TenantWeights, and a pass running alone still
// uses the whole pool.
func (p *PreparedQuery) Execute(ctx context.Context, src Source) (*Result, error) {
	return p.run(ctx, src, nil, nil)
}

// run is the shared execution core of Execute, Stream and their shard
// forms: it aggregates into a fresh Result and, when emit is set, hands
// on every match with its per-feature outcome. A non-nil shard restricts
// the pass to the features owned by that range's aligned form
// (AlignShard; aligning an aligned range again costs two constant-time
// look-ups, so callers that need the aligned range up front pass it
// down).
func (p *PreparedQuery) run(ctx context.Context, src Source, shard *ShardRange, emit func(StreamedFeature)) (*Result, error) {
	if err := p.engine.check(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Admission: the run (or the Stream producer calling it) occupies
	// one of the engine's in-flight slots for the whole pass; rejection
	// and queue-wait cancellation surface here before any work starts.
	release, err := p.engine.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	data := src.Bytes()
	whole := ShardRange{0, int64(len(data))}
	rng := whole
	out := &Result{Res: query.NewResult()}
	if shard != nil {
		if rng, err = AlignShard(src, *shard); err != nil {
			return nil, err
		}
		if rng.Start >= rng.End {
			// Nothing owned by this shard (a range entirely inside the
			// document wrapper, or at EOF).
			out.Stats.Workers = p.engine.pool.Size()
			return out, nil
		}
	}
	spec := &p.spec
	// take absorbs one scanned feature and hands a match on. It takes the
	// feature by value, so no flavour of the pass moves the per-feature
	// values to the heap.
	take := func(f geom.Feature, v query.FeatureVal) {
		out.Res.Absorb(spec, &f, v)
		if emit != nil && v.Matched {
			emit(StreamedFeature{Feature: f, Val: v})
		}
	}
	sink := func(f geojson.FeatureOut) {
		v, _ := f.Val.(query.FeatureVal)
		take(f.Feature, v)
	}
	// cold runs the cold plan of r without the sidecar. Options.Mode
	// applies to the cold pass over the whole source only (shard.go).
	cold := func(r ShardRange) (err error) {
		mode := PAT
		if r == whole {
			mode = p.opt.Mode
		}
		pl := coldPlan(src.DataFormat(), mode, data, r)
		out.Stats, out.Repaired, out.Reprocessed, err = runPass(ctx, p.engine, src, mode, &pl, p.opt, p.cfg, sink)
		return err
	}

	// Sidecar fast path: a GeoJSON or WKT mapped source on a
	// sidecar-enabled engine with a validated index runs warm, over the
	// tape instead of the bytes (tape.go): no boundary scan, no wrapper,
	// and only the features the tape cannot answer are parsed.
	ms, ix := p.engine.sidecarFor(src)
	if ix != nil && ix.Format != sidecar.FormatOSMXML {
		ms.sc.hits.Add(1)
		tp := newTapePass(p, ix, data, rng, take)
		out.Stats, err = tp.run(ctx, p.engine, p.opt.blockSize())
		if errors.Is(err, errWarmAbort) {
			// The tape disagreed with the bytes mid-pass (load-time
			// validation makes this near-impossible). Reject the sidecar
			// for all future passes; an aggregate-only pass can simply
			// rerun cold, a streaming pass has already emitted features
			// and must surface the error instead (a coordinator retries
			// the shard on seeing it).
			ms.rejectSidecar(err)
			if emit == nil {
				out.Res = query.NewResult()
				if err = cold(rng); err == nil {
					return out, nil
				}
			}
		}
		if err != nil {
			return nil, err
		}
		out.Res.Scanned += tp.misses
		return out, nil
	}

	// Cold pass, recording the structural tape when this engine may
	// write sidecars and no other pass holds the recorder. The recorder
	// is fed from the merge fold (single-threaded, consume order) and
	// is only persisted after the pass completes successfully. Only a
	// pass over the whole source may feed it, so a recording shard runs
	// that pass and keeps what its range owns; the next shard is warm.
	rec, recDone := p.engine.recorder(ms, ix)
	own := rng
	if rec != nil {
		inner := sink
		rng = whole
		sink = func(f geojson.FeatureOut) {
			rec.Add(f.Feature.Offset, f.Feature.ID, f.Box)
			if f.Feature.Offset >= own.Start && f.Feature.Offset < own.End {
				inner(f)
			}
		}
	}
	err = cold(rng)
	recDone(err)
	if rec != nil && shard != nil {
		ms.releaseOutside(own)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}
