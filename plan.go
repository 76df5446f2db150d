package atgis

import (
	"context"

	"atgis/internal/geojson"
	"atgis/internal/pipeline"
)

// Block plans. Every cold pass of every format — whole source or shard
// range, query or join partition — is one plan run by runPlan through the
// format's driver (drivers.go): an ordered, contiguous sequence of typed
// blocks from offset 0 to the plan's stop. The document header parses
// sequentially (it opens the root object and features array every PAT
// block assumes), live blocks parse in parallel, and gaps are skipped
// unparsed. coldPlan knows only where the range starts: header · gap up
// to the range · the range itself, cut by the format's boundary splitter
// while the pass runs. (A warm query runs over the sidecar tape instead,
// tape.go; OSM XML's second pass is a plan over its first pass's blocks,
// drivers.go.)
//
// A shard is therefore a restriction of a plan, not a runner: the planner
// takes the aligned range, and a feature belongs to the range that
// contains its start offset.

// blockKind labels the role of one planned block.
type blockKind uint8

const (
	blockHeader blockKind = iota // document wrapper, fed to fold.Header
	blockLive                    // parse: features here may match
	blockGap                     // skip: owned by another shard
)

type planBlock struct {
	start, end int64
	kind       blockKind
}

// blockPlan covers [0, stop): the explicit blocks, contiguous from 0 and
// none empty, then — when split >= 0 — the live tail [split, stop) whose
// cuts the boundary splitter finds during the pass. The pipeline input
// is truncated at stop, so nothing reads bytes owned by the next shard.
type blockPlan struct {
	blocks []planBlock
	split  int64
	stop   int64
}

// coldPlan plans r without a tape. Under PAT a GeoJSON document's
// wrapper ends at the first feature boundary and r.Start is clamped to
// it; FAT speculates over any block start and WKT and OSM XML cut at
// line and element starts, so they have no header block. Either way the
// whole source is the plan of [0, len).
func coldPlan(format Format, mode Mode, data []byte, r ShardRange) blockPlan {
	hdr := int64(0)
	if format == GeoJSON && mode == PAT {
		hdr = geojson.NextFeatureBoundary(data, 0)
	}
	if r.Start < hdr {
		r.Start = hdr
	}
	pl := blockPlan{split: -1, stop: r.End}
	if hdr > 0 {
		pl.blocks = append(pl.blocks, planBlock{0, hdr, blockHeader})
	}
	if r.Start > hdr {
		pl.blocks = append(pl.blocks, planBlock{hdr, r.Start, blockGap})
	}
	if r.Start < r.End {
		pl.split = r.Start
	}
	return pl
}

// empty reports a plan with nothing to run.
func (pl *blockPlan) empty() bool { return len(pl.blocks) == 0 && pl.split < 0 }

// kind is the role of pipeline block b: the pipeline forms exactly the
// explicit blocks first, so Block.Index indexes them; every later block
// is a piece of the live tail.
func (pl *blockPlan) kind(b pipeline.Block) blockKind {
	if b.Index < len(pl.blocks) {
		return pl.blocks[b.Index].kind
	}
	return blockLive
}

// splitter yields the plan's interior cuts over input, then streams the
// tail's from cuts (a format's boundary scan over the tail bytes), so
// block parsing starts while the scan is still running. The pipeline
// drops a cut that does not advance, which a scan reporting the tail's
// own start does.
func (pl *blockPlan) splitter(input []byte, blockSize int, cuts func(tail []byte, minGap int, yield func(int64) bool)) func(int64, func(int64) bool) {
	return func(_ int64, yield func(int64) bool) {
		for i := 1; i < len(pl.blocks); i++ {
			if !yield(pl.blocks[i].start) {
				return
			}
		}
		if pl.split < 0 || !yield(pl.split) {
			return
		}
		cuts(input[pl.split:], blockSize, func(cut int64) bool { return yield(pl.split + cut) })
	}
}

// driver adapts one format to runPlan. F is the fragment a worker makes
// of one live block; it travels to the fold by value, so nothing is boxed
// per block. cuts and process run off the fold goroutine; header, skip,
// add and finish run on it, in block order, and may be nil where the
// format has nothing to do. A driver holds the fold state of one pass and
// serves exactly one runPlan.
type driver[F any] struct {
	// input is the source truncated at the plan's stop.
	input []byte
	// cuts scans the live tail for block boundaries at least minGap apart.
	cuts func(tail []byte, minGap int, yield func(int64) bool)
	// process parses one live block.
	process func(b pipeline.Block) F
	// header consumes the document wrapper [0, end).
	header func(end int64)
	// skip steps the fold over a gap ending at end; false means the fold
	// cannot leave those bytes unparsed — the plan disagrees with the source.
	skip func(end int64) bool
	// add folds the fragment of live block b; an error fails the pass there.
	add func(b pipeline.Block, fr F) error
	// finish completes the fold. parsed is where the last header or live
	// block ended: a skipped tail must not be sequentially parsed back in.
	finish func(ctx context.Context, parsed int64) error
	// counts reports the blocks whose parallel results were discarded and
	// parsed again: repaired mis-splits (PAT), invalidated speculation (FAT).
	counts func() (repaired, reprocessed int)
}

// runPlan executes pl through d — the one place a cold pass is assembled
// from splitter, block function and ordered fold — and returns the
// pipeline stats and d's repair counts. A failed skip is errWarmAbort — a
// repair was in progress where the plan skips bytes.
func runPlan[F any](ctx context.Context, e *Engine, pl *blockPlan, opt Options, d *driver[F]) (st pipeline.Stats, repaired, reprocessed int, err error) {
	if pl.empty() {
		return pipeline.Stats{Bytes: int64(len(d.input)), Workers: e.pool.Size()}, 0, 0, nil
	}
	parsed := int64(0)
	st, err = runOrdered(ctx, e, d.input, int64(len(d.input)),
		pl.splitter(d.input, opt.blockSize(), d.cuts),
		func(b pipeline.Block) (fr F) {
			if pl.kind(b) == blockLive {
				fr = d.process(b)
			}
			return fr // the fold handles headers and gaps
		},
		func(b pipeline.Block, fr F) error {
			switch pl.kind(b) {
			case blockHeader:
				if d.header != nil {
					d.header(b.End)
				}
				parsed = b.End
			case blockGap:
				if d.skip != nil && !d.skip(b.End) {
					return errWarmAbort
				}
			default:
				parsed = b.End
				return d.add(b, fr)
			}
			return nil
		},
	)
	st.Bytes = int64(len(d.input))
	if err == nil && d.finish != nil {
		// Still the pass: its wall clock, merge time and allocations count.
		st = st.Add(pipeline.Tail(func() { err = d.finish(ctx, parsed) }))
	}
	if d.counts != nil {
		repaired, reprocessed = d.counts()
	}
	return st, repaired, reprocessed, err
}

// runOrdered runs process over the positions [0, n) — bytes of data, or
// tape entries of its sidecar — as one pass on e's pool and folds the
// results in order: the one place a root-package pass reaches
// pipeline.RunCtx.
//
// One failure rule for every pass: it stops at the first block whose fold
// fails. The fold's context is cancelled, nothing after that block is
// folded, and the fold's error is returned, so what the pass's sinks saw
// until then is a true prefix of its output — which is what lets a
// coordinator resume a failed shard elsewhere.
func runOrdered[F any](ctx context.Context, e *Engine, data []byte, n int64, cuts func(int64, func(int64) bool), process func(pipeline.Block) F, fold func(pipeline.Block, F) error) (pipeline.Stats, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	pass := e.register(ctx, pipeline.QueryPass, data)
	defer pass.Close()
	var failed error
	st, err := pipeline.RunCtx(ctx, n, cuts, pass, process, func(b pipeline.Block, fr F) {
		if failed = fold(b, fr); failed != nil {
			cancel() // the merge loop folds nothing after this
		}
	})
	if failed != nil {
		err = failed
	}
	return st, err
}
