package atgis

import (
	"context"
	"sort"

	"atgis/internal/geojson"
	"atgis/internal/geom"
	"atgis/internal/pipeline"
	"atgis/internal/query"
	"atgis/internal/sidecar"
	"atgis/internal/wkt"
)

// Block plans. Every PAT GeoJSON pass and every WKT pass — whole source
// or shard range, cold or warm — is one plan run by the format's plan
// executor: an ordered, contiguous sequence of typed blocks from offset
// 0 to the plan's stop. The document header parses sequentially (it
// opens the root object and features array every PAT block assumes),
// live blocks parse in parallel exactly as cold PAT blocks do, and gaps
// are skipped unparsed. Two planners produce plans:
//
//   - coldPlan knows only where the range starts: header · gap up to the
//     range · the range itself, cut by the format's boundary splitter
//     while the pass runs;
//   - tapePlan reads the sidecar tape instead of the bytes: the range's
//     features whose bbox misses the query window become gaps too, and
//     are counted scanned-but-unmatched — precisely what a cold pass
//     concludes about them (Evaluator.match rejects any candidate whose
//     MBR misses the reference MBR, for every predicate pruneWindow
//     admits).
//
// A shard is therefore a restriction of a plan, not a runner: both
// planners take the aligned range, and a feature belongs to the range
// that contains its start offset.

// blockKind labels the role of one planned block.
type blockKind uint8

const (
	blockHeader blockKind = iota // document wrapper, fed to fold.Header
	blockLive                    // parse: features here may match
	blockGap                     // skip: owned by another shard, or pruned
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
	pruned int64 // features of the range skipped on the tape's word
}

// coldPlan plans r without a tape. The document wrapper ends at the
// first feature boundary (WKT has none); r.Start is clamped to it, so
// the whole source is the plan of [0, len).
func coldPlan(format Format, data []byte, r ShardRange) blockPlan {
	hdr := int64(0)
	if format == GeoJSON {
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

// tapePlan plans r from the sidecar tape: the entries with r.Start <=
// off < r.End, pruned by the spec's window. Runs of survivors become
// live blocks cut at feature starts every ~blockSize bytes (so
// parallelism matches a cold pass), everything else a gap, and the plan
// stops where the tape says the next shard's first feature starts. With
// no survivor the plan is empty and the pass touches no bytes — not even
// the wrapper: a cold pass proved the document well-formed when the
// tape was recorded.
func tapePlan(ix *sidecar.Index, spec *query.Spec, r ShardRange, total int64, blockSize int) blockPlan {
	offs := ix.Offs
	i0 := sort.Search(len(offs), func(i int) bool { return offs[i] >= r.Start })
	i1 := sort.Search(len(offs), func(i int) bool { return offs[i] >= r.End })
	keep := make([]bool, len(offs))
	if win, ok := pruneWindow(spec); ok {
		ix.Prune(win, keep)
	} else {
		// No pruning admitted: every feature survives (the warm pass still
		// skips the boundary scan).
		for i := range keep {
			keep[i] = true
		}
	}
	live := 0
	for _, k := range keep[i0:i1] {
		if k {
			live++
		}
	}
	pl := blockPlan{split: -1, stop: total, pruned: int64(i1 - i0 - live)}
	if live == 0 {
		return pl
	}
	if i1 < len(offs) {
		pl.stop = offs[i1]
	}
	pos := int64(0)
	if ix.HeaderEnd > 0 {
		pl.blocks = append(pl.blocks, planBlock{0, ix.HeaderEnd, blockHeader})
		pos = ix.HeaderEnd
	}
	for i := i0; i < i1; {
		if !keep[i] {
			i++
			continue
		}
		if offs[i] > pos {
			// Earlier shards' features, pruned ones, leading blank lines
			// and inter-feature separators: nothing of this pass's.
			pl.blocks = append(pl.blocks, planBlock{pos, offs[i], blockGap})
		}
		j := i + 1
		for j < i1 && keep[j] && offs[j]-offs[i] < int64(blockSize) {
			j++
		}
		pos = pl.stop
		if j < i1 {
			pos = offs[j]
		}
		pl.blocks = append(pl.blocks, planBlock{offs[i], pos, blockLive})
		i = j
	}
	if pos < pl.stop {
		pl.blocks = append(pl.blocks, planBlock{pos, pl.stop, blockGap})
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

// splitter yields the plan's interior cuts, then streams the tail's from
// cuts (a format's boundary scan over the tail bytes), so block parsing
// starts while the scan is still running. The pipeline drops a cut that
// does not advance, which a scan reporting the tail's own start does.
func (pl *blockPlan) splitter(blockSize int, cuts func(tail []byte, minGap int, yield func(int64) bool)) pipeline.StreamSplitterFunc {
	return func(input []byte, yield func(int64) bool) {
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

// runGeoJSONPlan executes a GeoJSON plan through the PAT fold, streaming
// features into sink, and returns the pipeline stats and the repaired
// block count. errWarmAbort means a repair was in progress where the
// plan skips bytes — its gaps disagree with the source — and the pass
// stopped right there: what the sink saw until then is a true prefix of
// the pass's output, so a coordinator can resume the shard elsewhere.
func (e *Engine) runGeoJSONPlan(ctx context.Context, data []byte, pl *blockPlan, cfg *geojson.Config, opt Options, sink func(geojson.FeatureOut)) (pipeline.Stats, int, error) {
	if pl.empty() {
		return pipeline.Stats{Bytes: int64(len(data)), Workers: opt.workers()}, 0, nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	input := data[:pl.stop]
	fold := geojson.NewPATFold(input, cfg, sink)
	if len(pl.blocks) == 0 || pl.blocks[0].kind != blockHeader {
		fold.Header(0) // no wrapper to parse: the blocks start in the features array
	}
	aborted := false
	lastLive := int64(0)
	st, err := pipeline.RunCtx(ctx, input,
		pl.splitter(opt.blockSize(), geojson.FindFeatureBoundariesStream),
		e.exec(ctx, opt, input),
		func(b pipeline.Block) *geojson.PATBlockResult {
			if pl.kind(b) != blockLive {
				return nil // the fold handles headers and gaps
			}
			r := geojson.ProcessBlockPAT(input, b.Start, b.End, cfg)
			return &r
		},
		func(b pipeline.Block, r *geojson.PATBlockResult) {
			switch pl.kind(b) {
			case blockHeader:
				fold.Header(b.End)
			case blockGap:
				if !fold.Skip(b.End) {
					aborted = true
					cancel() // the merge loop folds nothing after this
				}
			default:
				fold.Add(*r)
				lastLive = b.End
			}
		},
	)
	if aborted {
		return st, fold.Repaired, errWarmAbort
	}
	if err != nil {
		return st, fold.Repaired, err
	}
	// Finish at the last live block: a skipped tail must not be
	// sequentially parsed back in.
	return st, fold.Repaired, fold.Finish(lastLive)
}

// runWKTPlan executes a WKT plan: live blocks parse their lines in
// parallel, gaps are never touched, features reach consume in input
// order.
func (e *Engine) runWKTPlan(ctx context.Context, data []byte, pl *blockPlan, opt Options, consume func(*geom.Feature)) (pipeline.Stats, error) {
	if pl.empty() {
		return pipeline.Stats{Bytes: int64(len(data)), Workers: opt.workers()}, nil
	}
	type frag struct {
		feats []geom.Feature
		err   error
	}
	input := data[:pl.stop]
	var firstErr error
	st, err := pipeline.RunCtx(ctx, input,
		pl.splitter(opt.blockSize(), wkt.SplitLinesStream),
		e.exec(ctx, opt, input),
		func(b pipeline.Block) frag {
			var fr frag
			if pl.kind(b) != blockLive {
				return fr
			}
			fr.err = wkt.EachLine(input, b.Start, b.End, func(line []byte, off int64) error {
				f, err := wkt.ParseLine(line, off)
				if err != nil {
					return err
				}
				fr.feats = append(fr.feats, f)
				return nil
			})
			return fr
		},
		func(b pipeline.Block, fr frag) {
			if fr.err != nil && firstErr == nil {
				firstErr = fr.err
			}
			for i := range fr.feats {
				consume(&fr.feats[i])
			}
		},
	)
	if err != nil {
		return st, err
	}
	return st, firstErr
}
