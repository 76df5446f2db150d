package atgis

import (
	"context"
	"fmt"

	"atgis/internal/geojson"
	"atgis/internal/geom"
	"atgis/internal/osmxml"
	"atgis/internal/pipeline"
	"atgis/internal/wkt"
)

// The four format drivers of runPlan (plan.go), each a thin adapter over
// what its format package exports, and the one lookup that picks among
// them.

// featureOps is what a pass does with its source's features. The formats
// hand them over at different points of a pass, so a pass says what
// happens at each:
//
//   - GeoJSON features leave the ordered fold as the extraction machine's
//     FeatureOut — bounding box included, cfg.Eval already run on a worker
//     (out);
//   - OSM XML features leave pass 2, in input order (feature);
//   - WKT lines parse to whole features on the workers, so the pass chooses
//     what a worker does with each one (each, threading the block's
//     fragment from its zero value) and what the fold does with the
//     fragments, in input order (fold). The query pass collects and then
//     consumes; the join's partition pass bins inside the worker.
type featureOps[F any] struct {
	cfg     *geojson.Config
	out     func(geojson.FeatureOut)
	feature func(*geom.Feature)
	each    func(fr F, f geom.Feature) F
	fold    func(fr F) error
}

// inOrder is the featureOps of a pass that wants every feature on the
// fold goroutine in input order: WKT workers collect their block's
// features and the fold hands them to feature.
func inOrder(cfg *geojson.Config, out func(geojson.FeatureOut), feature func(*geom.Feature)) featureOps[[]geom.Feature] {
	return featureOps[[]geom.Feature]{
		cfg:     cfg,
		out:     out,
		feature: feature,
		each:    func(fr []geom.Feature, f geom.Feature) []geom.Feature { return append(fr, f) },
		fold: func(fr []geom.Feature) error {
			for i := range fr {
				feature(&fr[i])
			}
			return nil
		},
	}
}

// runPass is the single driver lookup: it runs pl over src through the
// driver of src's format. mode matters for GeoJSON only, and FAT only
// ever sees the cold plan of the whole source (shard.go).
func runPass[F any](ctx context.Context, e *Engine, src Source, mode Mode, pl *blockPlan, opt Options, ops featureOps[F]) (pipeline.Stats, int, int, error) {
	input := src.Bytes()[:pl.stop]
	switch format := src.DataFormat(); {
	case format == GeoJSON && mode == FAT:
		return runPlan(ctx, e, pl, opt, fatDriver(input, ops.cfg, ops.out))
	case format == GeoJSON:
		return runPlan(ctx, e, pl, opt, patDriver(input, ops.cfg, ops.out))
	case format == WKT:
		return runPlan(ctx, e, pl, opt, wktDriver(input, ops))
	case format == OSMXML:
		return runPlan(ctx, e, pl, opt, osmDriver(input, ops.feature))
	default:
		return pipeline.Stats{}, 0, 0, fmt.Errorf("atgis: unsupported format %v", format)
	}
}

// wholePass runs the cold plan of the whole source: what CollectFeatures,
// the join's partition pass and the OSM reparser all are.
func wholePass[F any](ctx context.Context, e *Engine, src Source, opt Options, ops featureOps[F]) (pipeline.Stats, error) {
	data := src.Bytes()
	pl := coldPlan(src.DataFormat(), opt.Mode, data, ShardRange{0, int64(len(data))})
	st, _, _, err := runPass(ctx, e, src, opt.Mode, &pl, opt, ops)
	return st, err
}

// patDriver is partially-associative GeoJSON: boundary-searching cuts,
// the optimised sequential parser per block, and a fold that repairs
// mis-splits by re-parsing (geojson.PATFold).
func patDriver(input []byte, cfg *geojson.Config, out func(geojson.FeatureOut)) *driver[geojson.PATBlockResult] {
	fold := geojson.NewPATFold(input, cfg, out)
	return &driver[geojson.PATBlockResult]{
		input: input,
		cuts:  geojson.FindFeatureBoundariesStream,
		process: func(b pipeline.Block) geojson.PATBlockResult {
			return geojson.ProcessBlockPAT(input, b.Start, b.End, cfg)
		},
		header: fold.Header,
		skip:   fold.Skip,
		add: func(_ pipeline.Block, r geojson.PATBlockResult) error {
			fold.Add(r)
			return nil
		},
		finish: func(_ context.Context, lastLive int64) error { return fold.Finish(lastLive) },
		counts: func() (int, int) { return fold.Repaired, 0 },
	}
}

// fatDriver is fully-associative GeoJSON: fixed-stride cuts anywhere in
// the document and speculative blocks the fold validates in order
// (geojson.Fold). The whole source is one live tail — no header block,
// and no gap: speculation has no shard-local repair story.
func fatDriver(input []byte, cfg *geojson.Config, out func(geojson.FeatureOut)) *driver[geojson.BlockResult] {
	fold := geojson.NewFold(input, cfg, out)
	return &driver[geojson.BlockResult]{
		input: input,
		cuts: func(tail []byte, stride int, yield func(int64) bool) {
			pipeline.FixedSplitter{BlockSize: stride}.SplitStream(tail, yield)
		},
		process: func(b pipeline.Block) geojson.BlockResult {
			return geojson.ProcessBlockFAT(input, b.Start, b.End, cfg)
		},
		add: func(_ pipeline.Block, r geojson.BlockResult) error {
			fold.Add(r)
			return fold.Err()
		},
		finish: func(context.Context, int64) error { return fold.Finish() },
		counts: func() (int, int) { return 0, fold.Reprocessed },
	}
}

// wktFrag is a WKT block's fragment: what ops.each made of its features,
// or the line that failed to parse.
type wktFrag[F any] struct {
	fr  F
	err error
}

// wktDriver parses the lines of each live block on a worker; gaps are
// never touched and there is no wrapper.
func wktDriver[F any](input []byte, ops featureOps[F]) *driver[wktFrag[F]] {
	return &driver[wktFrag[F]]{
		input: input,
		cuts:  wkt.SplitLinesStream,
		process: func(b pipeline.Block) wktFrag[F] {
			var out wktFrag[F]
			out.err = wkt.EachLine(input, b.Start, b.End, func(line []byte, off int64) error {
				f, err := wkt.ParseLine(line, off)
				if err != nil {
					return err
				}
				out.fr = ops.each(out.fr, f)
				return nil
			})
			return out
		},
		add: func(_ pipeline.Block, fr wktFrag[F]) error {
			if fr.err != nil {
				return fr.err
			}
			return ops.fold(fr.fr)
		},
	}
}

// osmFrag is pass 1's fragment of one OSM XML block.
type osmFrag struct {
	ways []*osmxml.Way
	rels []*osmxml.Relation
	err  error
}

// osmDriver is the multi-pass OSM XML pipeline: the blocks are pass 1,
// which fills the node table from the workers and collects ways and
// relations in input order; finish is pass 2, which assembles geometries
// and hands each feature on. Ways referenced by multipolygon relations
// are consumed by the relation, not emitted standalone.
func osmDriver(input []byte, feature func(*geom.Feature)) *driver[osmFrag] {
	nodes := osmxml.NewNodeTable()
	var ways []*osmxml.Way
	var rels []*osmxml.Relation
	return &driver[osmFrag]{
		input: input,
		cuts:  osmxml.SplitElementsStream,
		process: func(b pipeline.Block) osmFrag {
			var fr osmFrag
			fr.err = osmxml.ParseBlock(input, b.Start, b.End, &osmxml.Handler{
				OnNode:     nodes.Put,
				OnWay:      func(w *osmxml.Way) { fr.ways = append(fr.ways, w) },
				OnRelation: func(r *osmxml.Relation) { fr.rels = append(fr.rels, r) },
			})
			return fr
		},
		add: func(_ pipeline.Block, fr osmFrag) error {
			if fr.err != nil {
				return fr.err
			}
			ways = append(ways, fr.ways...)
			rels = append(rels, fr.rels...)
			return nil
		},
		finish: func(ctx context.Context, _ int64) error {
			wayTab := osmxml.NewWayTable()
			for _, w := range ways {
				wayTab.Put(w)
			}
			inRelation := make(map[int64]bool)
			for _, r := range rels {
				for _, m := range r.Members {
					if m.Type == "way" {
						inRelation[m.Ref] = true
					}
				}
			}
			for i, w := range ways {
				if i&1023 == 0 && ctx.Err() != nil {
					return ctx.Err()
				}
				if inRelation[w.ID] {
					continue
				}
				g, err := osmxml.AssembleWay(w, nodes)
				if err != nil {
					return err
				}
				feature(&geom.Feature{ID: w.ID, Geom: g, Offset: w.Off})
			}
			for i, r := range rels {
				if i&1023 == 0 && ctx.Err() != nil {
					return ctx.Err()
				}
				g, err := osmxml.AssembleRelation(r, wayTab, nodes)
				if err != nil {
					return err
				}
				feature(&geom.Feature{ID: r.ID, Geom: g, Offset: r.Off})
			}
			return nil
		},
	}
}
