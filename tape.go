package atgis

import (
	"context"
	"sort"

	"atgis/internal/geojson"
	"atgis/internal/geom"
	"atgis/internal/pipeline"
	"atgis/internal/query"
	"atgis/internal/sidecar"
)

// Tape passes. A warm GeoJSON or WKT query is one pipeline run whose
// positions are the sidecar tape's entries [i0, i1) — the features that
// start in the (aligned) range — as a join sweep's positions are grid
// cells. Each entry is classified from its recorded box before anything
// is read: a miss (the box misses the window; counted scanned, never read,
// as query.ApplyBox rejects it for every predicate pruneWindow admits),
// covered (a non-empty box inside a window that is the whole reference of
// an intersects query needing nothing but the box — a non-empty geometry
// inside a rectangle intersects it, so the entry is a match as recorded)
// or parse. Blocks are cut by the bytes left to parse; a block's worker
// parses its parse entries one contiguous run at a time, and the ordered
// fold emits covered matches and parsed features interleaved, in tape
// order — the sequence a cold pass emits. No wrapper is parsed: the cold
// pass that recorded the tape proved the document well formed, and the
// tape is validated against the bytes' content hash. Where it is cheap the
// tape is still checked against the bytes (spans, parseRun); a mismatch
// fails the pass with errWarmAbort. An OSM XML tape lists pass-2
// elements, which parse only against the node table a whole pass builds,
// so it serves joins only.

// tapeClass is what a tape pass does with one entry.
type tapeClass uint8

const (
	tapeMiss    tapeClass = iota // counted scanned, never read
	tapeCovered                  // a match answered from the tape
	tapeParse                    // parsed and evaluated
)

// tapePass is one warm pass over the tape entries [i0, i1) of ix.
type tapePass struct {
	ix     *sidecar.Index
	data   []byte // the whole source
	wkt    bool   // WKT, else GeoJSON
	cfg    *geojson.Config
	i0, i1 int
	stop   int64       // where the range's bytes end: the next range's first feature, or EOF
	class  []tapeClass // of entries i0..i1-1
	parse  int64       // bytes the parse entries span
	misses int64       // entries counted scanned from the tape alone

	// take receives every entry the pass does not count as a miss, in
	// tape order, on the fold goroutine.
	take func(geom.Feature, query.FeatureVal)
}

// newTapePass classifies the tape entries of r, an aligned range of the
// source of ix, for the prepared query p.
func newTapePass(p *PreparedQuery, ix *sidecar.Index, data []byte, r ShardRange, take func(geom.Feature, query.FeatureVal)) *tapePass {
	offs := ix.Offs
	tp := &tapePass{
		ix:   ix,
		data: data,
		wkt:  ix.Format == sidecar.FormatWKT,
		cfg:  p.exactCfg(),
		i0:   sort.Search(len(offs), func(i int) bool { return offs[i] >= r.Start }),
		i1:   sort.Search(len(offs), func(i int) bool { return offs[i] >= r.End }),
		stop: int64(len(data)),
		take: take,
	}
	if tp.i1 < len(offs) {
		tp.stop = offs[tp.i1]
	}
	tp.class = make([]tapeClass, tp.i1-tp.i0)
	win, prune := pruneWindow(&p.spec)
	tp.parse = tp.classify(win, prune, prune && p.cover)
	return tp
}

// classify fills tp.class and returns the bytes the parse entries span.
//
//atgis:hotpath
func (tp *tapePass) classify(win geom.Box, prune, cover bool) (parse int64) {
	boxes := tp.ix.Boxes[tp.i0:tp.i1]
	for k := range boxes {
		b := &boxes[k]
		switch {
		case prune && !b.Intersects(win):
			tp.class[k] = tapeMiss
		case cover && !b.IsEmpty() && win.ContainsBox(*b):
			tp.class[k] = tapeCovered
		default:
			tp.class[k] = tapeParse
			parse += tp.end(tp.i0+k) - tp.ix.Offs[tp.i0+k]
		}
	}
	return parse
}

// end is where entry j's span ends: the next entry's start, or EOF.
func (tp *tapePass) end(j int) int64 {
	if j+1 < len(tp.ix.Offs) {
		return tp.ix.Offs[j+1]
	}
	return int64(len(tp.data))
}

// run executes the pass: on the pool when it has anything to parse, on
// the caller's goroutine otherwise. The stats count blocks of parse work.
func (tp *tapePass) run(ctx context.Context, e *Engine, blockSize int) (st pipeline.Stats, err error) {
	n := int64(tp.i1 - tp.i0)
	if tp.parse == 0 {
		st = pipeline.Tail(func() {
			all := pipeline.Block{End: n}
			if err = tp.fold(all, tp.process(all)); err == nil {
				err = ctx.Err()
			}
		})
		st.Workers, st.Bytes = e.pool.Size(), tp.stop
		return st, err
	}
	st, err = runOrdered(ctx, e, tp.data, n,
		func(_ int64, yield func(int64) bool) { tp.cuts(int64(blockSize), yield) },
		tp.process, tp.fold)
	st.Bytes = tp.stop
	return st, err
}

// cuts yields a cut before the first parse entry met once the parse
// entries since the last cut span blockSize bytes, so every block but the
// last parses at least that much and the last parses something.
func (tp *tapePass) cuts(blockSize int64, yield func(int64) bool) {
	acc := int64(0)
	for k, c := range tp.class {
		if c != tapeParse {
			continue
		}
		if acc >= blockSize {
			if !yield(int64(k)) {
				return
			}
			acc = 0
		}
		j := tp.i0 + k
		acc += tp.end(j) - tp.ix.Offs[j]
	}
}

// tapeFrag is a block's worker output: its parse entries, parsed, in
// tape order, and — when err is set — the entry where the tape and the
// bytes first disagree.
type tapeFrag struct {
	feats []geojson.FeatureOut
	err   error
	fail  int
}

// process is a block's worker half: it parses the block's parse entries
// one contiguous run at a time and checks the span of every covered one.
func (tp *tapePass) process(b pipeline.Block) (fr tapeFrag) {
	lo, hi := tp.i0+int(b.Start), tp.i0+int(b.End)
	for j := lo; j < hi; {
		switch tp.class[j-tp.i0] {
		case tapeMiss:
			j++
		case tapeCovered:
			if !tp.spans(j) {
				fr.err, fr.fail = errWarmAbort, j
				return fr
			}
			j++
		default:
			k := j + 1
			for k < hi && tp.class[k-tp.i0] == tapeParse {
				k++
			}
			if fr.feats, fr.err = tp.parseRun(fr.feats, j, k); fr.err != nil {
				fr.fail = j
				return fr
			}
			j = k
		}
	}
	return fr
}

// parseRun appends the features of entries [j, k) — contiguous bytes —
// to dst, parsed with the query's extraction config, and checks they are
// exactly the tape's: one per entry, at its offset, with its box.
func (tp *tapePass) parseRun(dst []geojson.FeatureOut, j, k int) ([]geojson.FeatureOut, error) {
	start, end := tp.ix.Offs[j], tp.end(k-1)
	if start < 0 || start >= end || end > int64(len(tp.data)) {
		return dst, errWarmAbort
	}
	n := len(dst)
	if tp.wkt {
		var err error
		if dst, err = wktFeatures(dst, tp.data, start, end, tp.cfg); err != nil {
			return dst, errWarmAbort
		}
	} else {
		r := geojson.ProcessBlockPAT(tp.data, start, end, tp.cfg)
		// Only the tape's last feature may run into the close of the
		// features array.
		if !r.Clean || r.ClosedBase() && k < len(tp.ix.Offs) {
			return dst, errWarmAbort
		}
		dst = append(dst, r.Features...)
	}
	if len(dst)-n != k-j {
		return dst, errWarmAbort
	}
	for i, f := range dst[n:] {
		if f.Feature.Offset != tp.ix.Offs[j+i] || f.Box != tp.ix.Boxes[j+i] {
			return dst, errWarmAbort
		}
	}
	return dst, nil
}

// spans checks covered entry j against the bytes: it must open a feature
// — a '{' in GeoJSON, a line start in WKT — and the bytes before the next
// entry must close one: '}' then ',' in GeoJSON, blanks allowed between
// them, and a '\n' in WKT. The tape's last entry has no next one to
// check against.
func (tp *tapePass) spans(j int) bool {
	data, offs := tp.data, tp.ix.Offs
	off := offs[j]
	if off < 0 || off >= int64(len(data)) {
		return false
	}
	if tp.wkt && off > 0 && data[off-1] != '\n' || !tp.wkt && data[off] != '{' {
		return false
	}
	if j+1 == len(offs) {
		return true
	}
	next := offs[j+1]
	if next <= off || next > int64(len(data)) {
		return false
	}
	if tp.wkt {
		return data[next-1] == '\n'
	}
	i := skipBlanksBack(data, next-1)
	if i <= off || data[i] != ',' {
		return false
	}
	i = skipBlanksBack(data, i-1)
	return i > off && data[i] == '}'
}

// skipBlanksBack returns the last index at or before i that is not JSON
// whitespace (-1 when there is none).
func skipBlanksBack(data []byte, i int64) int64 {
	for i >= 0 && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i--
	}
	return i
}

// fold is a block's ordered half: it walks the block's entries in tape
// order, counting misses and handing on covered matches and parsed
// features interleaved. Where the worker found the tape lying, the fold
// stops and fails: what the sinks saw stays a true prefix of the pass's
// output.
//
//atgis:hotpath
func (tp *tapePass) fold(b pipeline.Block, fr tapeFrag) error {
	end := tp.i0 + int(b.End)
	if fr.err != nil {
		end = fr.fail
	}
	n := 0
	for j := tp.i0 + int(b.Start); j < end; j++ {
		switch tp.class[j-tp.i0] {
		case tapeMiss:
			tp.misses++
		case tapeCovered:
			box := tp.ix.Boxes[j]
			tp.take(geom.Feature{ID: tp.ix.IDs[j], Offset: tp.ix.Offs[j]}, query.FeatureVal{Matched: true, Box: box})
		default:
			f := &fr.feats[n]
			n++
			v, _ := f.Val.(query.FeatureVal)
			tp.take(f.Feature, v)
		}
	}
	return fr.err
}

// coverWindow reports whether a tape pass may answer spec's entries from
// their boxes: an intersects predicate whose reference is exactly its MBR
// as a polygon — what every wire query and the CLI send — and no output
// that reads the geometry (area, perimeter, hull). The caller rules out
// properties.
func coverWindow(spec *query.Spec) bool {
	if spec.Pred != query.PredIntersects || spec.WantArea || spec.WantPerimeter || spec.WantHull {
		return false
	}
	ref, ok := spec.Ref.(geom.Polygon)
	if !ok || len(ref) != 1 {
		return false
	}
	want := spec.RefBox.AsRing()
	if len(ref[0]) != len(want) {
		return false
	}
	for i := range want {
		if ref[0][i] != want[i] {
			return false
		}
	}
	return true
}
