package atgis

import (
	"context"
	"fmt"
	"sync"

	"atgis/internal/at"
	"atgis/internal/geojson"
	"atgis/internal/geom"
	"atgis/internal/lexer"
	"atgis/internal/osmxml"
	"atgis/internal/pipeline"
	"atgis/internal/wkt"
)

// The four format drivers of runPlan (plan.go), each a thin adapter over
// what its format package exports, and the one lookup that picks among
// them.

// Every driver honours one extraction contract — geojson.Config in,
// geojson.FeatureOut out — on its workers: a feature leaves its block with
// ID, Offset and bounding box, and, unless cfg rejected it on that box
// before anything was built (Config.Rejects: Window, BoundsOnly), with
// its geometry, its properties and cfg's evaluation of it. The box is the
// exact bounding box, but for a GeoJSON feature, a WKT line or an OSM
// way or relation rejected under Config.BracketReject, whose box contains
// its bounds and misses Window.
// The ordered fold emits the features to the pass's one sink, out, in
// input order on the fold goroutine.

// runPass is the single driver lookup: it runs pl over src through the
// driver of src's format. mode matters for GeoJSON only, and FAT only
// ever sees the cold plan of the whole source (shard.go).
func runPass(ctx context.Context, e *Engine, src Source, mode Mode, pl *blockPlan, opt Options, cfg *geojson.Config, out func(geojson.FeatureOut)) (pipeline.Stats, int, int, error) {
	input := src.Bytes()[:pl.stop]
	switch format := src.DataFormat(); {
	case format == GeoJSON && mode == FAT:
		return runPlan(ctx, e, pl, opt, fatDriver(input, cfg, out))
	case format == GeoJSON:
		return runPlan(ctx, e, pl, opt, patDriver(src.Bytes(), input, cfg, out))
	case format == WKT:
		return runPlan(ctx, e, pl, opt, wktDriver(input, cfg, out))
	case format == OSMXML:
		// Two plans, one pass: the second is cut from what the first found.
		o := &osmPass{input: input, cfg: cfg, out: out, nodes: osmxml.NewNodeTable()}
		if cfg.BracketReject {
			o.gate = cfg.Window
		}
		st, _, _, err := runPlan(ctx, e, pl, opt, o.pass1())
		if err != nil {
			return st, 0, 0, err
		}
		pl2 := o.plan2()
		st2, _, _, err := runPlan(ctx, e, &pl2, opt, o.pass2())
		return st.Add(st2), 0, 0, err
	default:
		return pipeline.Stats{}, 0, 0, fmt.Errorf("atgis: unsupported format %v", format)
	}
}

// wholePass runs the cold plan of the whole source: what CollectFeatures,
// the join's partition pass and the OSM reparser all are.
func wholePass(ctx context.Context, e *Engine, src Source, opt Options, cfg *geojson.Config, out func(geojson.FeatureOut)) (pipeline.Stats, error) {
	data := src.Bytes()
	pl := coldPlan(src.DataFormat(), opt.Mode, data, ShardRange{0, int64(len(data))})
	st, _, _, err := runPass(ctx, e, src, opt.Mode, &pl, opt, cfg, out)
	return st, err
}

// patDriver is partially-associative GeoJSON: boundary-searching cuts,
// the optimised sequential parser per block, and a fold that repairs
// mis-splits by re-parsing (geojson.PATFold). Blocks see input, the source
// up to the plan's stop; the fold sees the whole document, doc, so it knows
// whether the pass ended at the document's end.
func patDriver(doc, input []byte, cfg *geojson.Config, out func(geojson.FeatureOut)) *driver[geojson.PATBlockResult] {
	fold := geojson.NewPATFold(doc, cfg, out)
	return &driver[geojson.PATBlockResult]{
		input: input,
		cuts:  geojson.FindFeatureBoundariesStream,
		process: func(b pipeline.Block) geojson.PATBlockResult {
			return geojson.ProcessBlockPAT(input, b.Start, b.End, cfg)
		},
		header: fold.Header,
		skip:   fold.Skip,
		add: func(_ pipeline.Block, r geojson.PATBlockResult) error {
			return fold.Add(r)
		},
		finish: func(_ context.Context, parsed int64) error { return fold.Finish(parsed) },
		counts: func() (int, int) { return fold.Repaired, 0 },
	}
}

// fatDriver is fully-associative GeoJSON: fixed-stride cuts anywhere in
// the document and speculative blocks the fold validates in order
// (geojson.Fold). What a block speculates over is the pushdown stack under
// its first byte; the lexer state there is known, because the splitter
// composes lexer.SummarizeJSON over the bytes between cuts as it yields
// them — a scan for quotes and backslashes that runs several times ahead
// of the workers — so every block is extracted once. The whole source is
// one live tail — no header block, and no gap: speculation has no
// shard-local repair story.
func fatDriver(input []byte, cfg *geojson.Config, out func(geojson.FeatureOut)) *driver[geojson.BlockResult] {
	fold := geojson.NewFold(input, cfg, out)
	starts := lexStarts{at: map[int64]at.State{}}
	return &driver[geojson.BlockResult]{
		input: input,
		cuts: func(tail []byte, stride int, yield func(int64) bool) {
			base := int64(len(input) - len(tail))
			q, prev := lexer.JSONDefault, int64(0) // the fold starts there too
			starts.put(base, q)
			pipeline.FixedSplitter{BlockSize: stride}.Cuts(int64(len(tail)), func(cut int64) bool {
				q, prev = lexer.SummarizeJSON(q, tail[prev:cut]), cut
				starts.put(base+cut, q)
				return yield(cut)
			})
		},
		process: func(b pipeline.Block) geojson.BlockResult {
			return geojson.ProcessBlockFATFrom(input, b.Start, b.End, starts.take(b.Start), cfg)
		},
		add: func(_ pipeline.Block, r geojson.BlockResult) error {
			fold.Add(r)
			return fold.Err()
		},
		finish: func(context.Context, int64) error { return fold.Finish() },
		counts: func() (int, int) { return 0, fold.Reprocessed },
	}
}

// lexStarts hands the lexer state at each block start from the splitter
// that composes it to the worker that gets the block. The splitter puts a
// cut's state before it yields the cut, and a block forms only after the
// cut it starts at, so take always finds it.
type lexStarts struct {
	mu sync.Mutex
	at map[int64]at.State
}

func (s *lexStarts) put(off int64, q at.State) {
	s.mu.Lock()
	s.at[off] = q
	s.mu.Unlock()
}

func (s *lexStarts) take(off int64) at.State {
	s.mu.Lock()
	q := s.at[off]
	delete(s.at, off)
	s.mu.Unlock()
	return q
}

// wktFeats is a WKT block's fragment: its features, or the line that
// failed to parse.
type wktFeats struct {
	feats []geojson.FeatureOut
	err   error
}

// wktDriver parses the lines of each live block on a worker — box, window
// reject, build, evaluation, in that order (wkt.ParseFeature) — and the
// fold only emits; gaps are never touched and there is no wrapper.
func wktDriver(input []byte, cfg *geojson.Config, out func(geojson.FeatureOut)) *driver[wktFeats] {
	return &driver[wktFeats]{
		input: input,
		cuts:  wkt.SplitLinesStream,
		process: func(b pipeline.Block) (fr wktFeats) {
			fr.feats, fr.err = wktFeatures(nil, input, b.Start, b.End, cfg)
			return fr
		},
		add: func(_ pipeline.Block, fr wktFeats) error {
			if fr.err != nil {
				return fr.err
			}
			for _, f := range fr.feats {
				out(f)
			}
			return nil
		},
	}
}

// wktFeatures appends the features of the lines in [start, end) of input
// to dst — box, window reject, build, evaluation, in that order — and stops
// at the first line that fails to parse.
func wktFeatures(dst []geojson.FeatureOut, input []byte, start, end int64, cfg *geojson.Config) ([]geojson.FeatureOut, error) {
	err := wkt.EachLine(input, start, end, func(line []byte, off int64) error {
		f, err := wkt.ParseFeature(line, off, cfg)
		if err == nil {
			dst = append(dst, f)
		}
		return err
	})
	return dst, err
}

// osmPass is what the two plans of an OSM XML pass share. Pass 1 is the
// cold plan over the bytes: workers parse their block into columns, the
// fold hands the node columns to the table and keeps the blocks that hold
// ways or relations, and finish links the two (osmxml.Link). Pass 2 is a
// plan over those same blocks — an element belongs to the block holding
// its start offset, the shard rule — whose workers resolve each way and
// relation against the frozen table, bounding box first: a feature that
// misses cfg.Window is dropped before its points, its geometry or its
// value exist, exactly as the GeoJSON machine drops it. Under
// cfg.BracketReject pass 1 leaves the nodes whose cell of integer
// brackets misses the window unconverted, and pass 2 rejects on their
// cells, converting them only for a way or relation whose box meets it.
// The fold emits the features as that machine does, through out, in the
// order a serial pass 2 would: every standalone way in input order, then
// the relations.
type osmPass struct {
	input []byte
	cfg   *geojson.Config
	out   func(geojson.FeatureOut)
	// gate is the window pass 1 may leave nodes bracketed under and pass
	// 2's resolvers reject on: cfg.Window under cfg.BracketReject, else nil.
	gate *geom.Box

	nodes  *osmxml.NodeTable
	blocks []osmxml.Elements // pass 1 fragments holding a way or a relation, in input order
	spans  []pipeline.Block  // where each of them lies
	topo   *osmxml.Topology

	at       []*osmxml.Elements   // pass 2: the fragment behind each plan block, nil for a gap
	lastWays int                  // the last plan block holding a way
	held     []geojson.FeatureOut // relations waiting for that block
	relErr   error                // the first relation that failed
}

// osmFrag is pass 1's fragment of one block.
type osmFrag struct {
	el  osmxml.Elements
	err error
}

func (o *osmPass) pass1() *driver[osmFrag] {
	return &driver[osmFrag]{
		input: o.input,
		cuts:  osmxml.SplitElementsStream,
		process: func(b pipeline.Block) (fr osmFrag) {
			fr.el, fr.err = osmxml.ParseElements(o.input, b.Start, b.End, o.gate)
			return fr
		},
		add: func(b pipeline.Block, fr osmFrag) error {
			if fr.err != nil {
				return fr.err
			}
			o.nodes.Append(fr.el.NodeIDs, fr.el.NodePts, fr.el.Ascending)
			if len(fr.el.Ways)+len(fr.el.Rels) > 0 {
				o.blocks = append(o.blocks, fr.el)
				o.spans = append(o.spans, b)
			}
			return nil
		},
		finish: func(context.Context, int64) error {
			o.topo = osmxml.Link(o.input, o.nodes, o.blocks)
			return nil
		},
	}
}

// plan2 is pass 2's plan: pass 1's blocks again, those without a way or
// a relation as gaps.
func (o *osmPass) plan2() blockPlan {
	pl := blockPlan{split: -1, stop: int64(len(o.input))}
	o.lastWays = -1
	pos := int64(0)
	gap := func(end int64) {
		if end > pos {
			pl.blocks = append(pl.blocks, planBlock{pos, end, blockGap})
			o.at = append(o.at, nil)
		}
	}
	for i, s := range o.spans {
		gap(s.Start)
		if len(o.blocks[i].Ways) > 0 {
			o.lastWays = len(pl.blocks)
		}
		pl.blocks = append(pl.blocks, planBlock{s.Start, s.End, blockLive})
		o.at = append(o.at, &o.blocks[i])
		pos = s.End
	}
	if len(pl.blocks) > 0 {
		gap(pl.stop)
	}
	return pl
}

// osmFeats is pass 2's fragment of one block: the boxes of its standalone
// ways and then of its relations, as far as they resolved, and what the
// worker built for those that passed the window.
type osmFeats struct {
	boxes          []geom.Box
	ways           int // how many of boxes are ways'
	kept           []osmKept
	wayErr, relErr error
}

type osmKept struct {
	n    int // index in boxes
	geom geom.Geometry
	val  any
}

func (o *osmPass) pass2() *driver[osmFeats] {
	return &driver[osmFeats]{
		input:   o.input,
		process: func(b pipeline.Block) osmFeats { return o.resolve(o.at[b.Index]) },
		add: func(b pipeline.Block, fr osmFeats) error {
			el := o.at[b.Index]
			n, k := 0, 0
			next := func(id, off int64) geojson.FeatureOut {
				f := geojson.FeatureOut{Feature: geom.Feature{ID: id, Offset: off}, Box: fr.boxes[n]}
				if k < len(fr.kept) && fr.kept[k].n == n {
					f.Feature.Geom, f.Val = fr.kept[k].geom, fr.kept[k].val
					k++
				}
				n++
				return f
			}
			for i := 0; i < len(el.Ways) && n < fr.ways; i++ {
				if w := &el.Ways[i]; !w.InRelation {
					o.out(next(w.ID, w.Off))
				}
			}
			if fr.wayErr != nil {
				return fr.wayErr
			}
			// Relations stop at the first that failed, and wait until no way
			// can follow them.
			hold := b.Index < o.lastWays
			if !hold {
				for _, f := range o.held {
					o.out(f)
				}
				o.held = nil
			}
			if o.relErr == nil {
				for i := 0; i < len(el.Rels) && n < len(fr.boxes); i++ {
					if f := next(el.Rels[i].ID, el.Rels[i].Off); hold {
						o.held = append(o.held, f)
					} else {
						o.out(f)
					}
				}
				o.relErr = fr.relErr
			}
			if hold {
				return nil
			}
			return o.relErr
		},
	}
}

// resolve is pass 2 over one block, on a worker.
func (o *osmPass) resolve(el *osmxml.Elements) (fr osmFeats) {
	r := o.topo.Resolver(o.gate)
	n := len(el.Rels)
	for i := range el.Ways {
		if !el.Ways[i].InRelation {
			n++
		}
	}
	fr.boxes = make([]geom.Box, 0, n)
	keep := func(id, off int64, box geom.Box) {
		n := len(fr.boxes)
		fr.boxes = append(fr.boxes, box)
		if o.cfg.Rejects(box) {
			return
		}
		f := geom.Feature{ID: id, Geom: r.Build(), Offset: off}
		fr.kept = append(fr.kept, osmKept{n: n, geom: f.Geom, val: o.cfg.Value(&f, box)})
	}
	for i := range el.Ways {
		w := &el.Ways[i]
		if w.InRelation {
			continue
		}
		box, err := r.Way(el, i)
		if err != nil {
			fr.ways, fr.wayErr = len(fr.boxes), err
			return fr
		}
		keep(w.ID, w.Off, box)
	}
	fr.ways = len(fr.boxes)
	for i := range el.Rels {
		box, err := r.Relation(el, i)
		if err != nil {
			fr.relErr = err
			break
		}
		keep(el.Rels[i].ID, el.Rels[i].Off, box)
	}
	return fr
}
