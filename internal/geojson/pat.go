package geojson

import (
	"bytes"
	"fmt"

	"atgis/internal/at"
	"atgis/internal/geom"
	"atgis/internal/lexer"
)

// Partially-associative execution (paper §3.5): block boundaries are
// placed where the parser state is known — at feature-object starts found
// by searching for the "type":"Feature" tag — so each block is parsed by
// the optimised sequential parser with no speculation. Mis-splits caused
// by the tag appearing inside free-form metadata are detected during the
// ordered merge and repaired by sequential re-parsing, exactly the
// reprocessing escape hatch the paper describes.

// ParseSequential parses a whole GeoJSON document with the resolved
// machine: the oracle every parallel mode must reproduce. It is a PAT fold
// whose header is the whole document — one sequential machine, no block.
// A document that ends with containers open fails after emitting every
// feature it closed.
func ParseSequential(input []byte, cfg *Config, sink func(FeatureOut)) error {
	fd := NewPATFold(input, cfg, sink)
	fd.Header(int64(len(input)))
	return fd.Finish(int64(len(input)))
}

// endErr is Err for a machine that has met the end of the document: a
// container still open there is the error every mode reports.
func (m *Machine) endErr() error {
	if m.err == nil && len(m.frames) > 0 {
		return fmt.Errorf("geojson: %d unclosed containers at end of input", len(m.frames))
	}
	return m.err
}

// FindFeatureBoundaries returns the offsets of the '{' characters that
// open candidate feature objects, located by scanning for the
// "type":"Feature" tag (whitespace-tolerant) and backing up to the
// enclosing brace. Boundaries closer than minGap apart are coalesced so
// blocks have a useful minimum size.
//
// The scan is the sequential split phase of PAT execution; its cost
// grows when candidate boundaries are sparse (few large objects), which
// is what Fig. 14 measures.
func FindFeatureBoundaries(input []byte, minGap int) []int64 {
	var out []int64
	FindFeatureBoundariesStream(input, minGap, func(cut int64) bool { out = append(out, cut); return true })
	return out
}

// FindFeatureBoundariesStream yields feature-boundary cut offsets in
// increasing order as they are found, the incremental form that lets
// pipeline.RunCtx dispatch PAT blocks while the boundary scan is still
// running. The scan stops early when yieldCut returns false, so a
// cancelled run does not pay for scanning the rest of the input.
func FindFeatureBoundariesStream(input []byte, minGap int, yieldCut func(int64) bool) {
	pat := []byte(`"type"`)
	pos := 0
	next := 0 // earliest position for the next accepted boundary
	for {
		i := bytes.Index(input[pos:], pat)
		if i < 0 {
			break
		}
		abs := pos + i
		pos = abs + len(pat)
		if abs < next {
			// Every occurrence before next is rejected anyway; jump the
			// scan straight to the next eligible position instead of
			// visiting each "type" inside the coalescing window.
			if next >= len(input) {
				break
			}
			if next > pos {
				pos = next
			}
			continue
		}
		// Match: "type" ws* : ws* "Feature"
		j := abs + len(pat)
		for j < len(input) && isSpace(input[j]) {
			j++
		}
		if j >= len(input) || input[j] != ':' {
			continue
		}
		j++
		for j < len(input) && isSpace(input[j]) {
			j++
		}
		if !bytes.HasPrefix(input[j:], []byte(`"Feature"`)) {
			continue
		}
		// Back up over whitespace to the opening brace.
		k := abs - 1
		for k >= 0 && isSpace(input[k]) {
			k--
		}
		if k < 0 || input[k] != '{' {
			continue
		}
		if !yieldCut(int64(k)) {
			return
		}
		next = k + minGap
	}
}

// NextFeatureBoundary returns the offset of the first candidate
// feature boundary at or after from, or len(input) when none remains.
// The result depends only on the bytes from `from` onward: a candidate
// whose opening brace lies before `from` is never reported (its tag
// scan backs up below `from` and is rejected), so two scans of the same
// content from the same offset always agree. That determinism is what
// lets distributed shard passes align their raw byte ranges
// independently — the worker ending a shard at raw offset X and the
// worker starting the next shard at X compute the same aligned
// boundary with no coordination.
func NextFeatureBoundary(input []byte, from int64) int64 {
	if from < 0 {
		from = 0
	}
	if from >= int64(len(input)) {
		return int64(len(input))
	}
	out := int64(len(input))
	FindFeatureBoundariesStream(input[from:], 1, func(cut int64) bool {
		out = from + cut
		return false // first boundary only
	})
	return out
}

// PATBlockResult is the outcome of parsing one PAT block in the parallel
// phase.
type PATBlockResult struct {
	Start, End int64
	Features   []FeatureOut
	// IncompleteOff is the offset of a feature that opened in the block
	// but did not close before the block end (-1 if the block ended
	// cleanly). A dirty end signals a mis-split.
	IncompleteOff int64
	// Clean reports that the block ended with no open containers and the
	// lexer in the default state.
	Clean bool
	// baseClose is the offset of the first close the block met with no
	// container of its own open, where its scan stopped (-1 if none).
	baseClose int64
}

// ClosedBase reports whether the block met a close with no container of
// its own open — the end of the features array — and stopped there.
func (r *PATBlockResult) ClosedBase() bool { return r.baseClose >= 0 }

// ProcessBlockPAT parses one block assuming it starts at a feature-object
// boundary.
func ProcessBlockPAT(input []byte, start, end int64, cfg *Config) PATBlockResult {
	res := PATBlockResult{Start: start, End: end, IncompleteOff: -1}
	// The features accumulate in the pooled machine's buffer and leave it
	// as one exact-size copy: a block lists every feature it scanned,
	// matched or not, so growing a fresh slice per block would be most of
	// what a selective pass allocates.
	m := acquireMachine(input, cfg, nil)
	m.patBase = true
	endState := m.scan(lexer.JSONDefault, start, end)
	res.Features = append(res.Features, m.features...)
	clear(m.features) // the pooled machine must not pin the geometries
	if len(m.frames) > 0 {
		res.IncompleteOff = m.frames[0].openOff
	}
	res.Clean = len(m.frames) == 0 && endState == lexer.JSONDefault && m.Err() == nil
	res.baseClose = m.baseClose
	releaseMachine(m)
	return res
}

// PATFold merges PAT block results in input order, repairing mis-splits
// by sequential re-parsing from the last known-good position.
type PATFold struct {
	input []byte
	cfg   *Config
	sink  func(FeatureOut)

	resume  int64 // next input offset whose results are still needed
	seqMode bool  // parallel results invalid until a clean block boundary
	seqM    *Machine
	seqLex  at.State

	// Repaired counts blocks whose parallel results were discarded.
	Repaired int
}

// NewPATFold starts an empty PAT fold over the whole document input, even
// when the pass covers only a prefix of it: the fold parses no byte past
// the blocks it is given, and Finish tells the document's end by it. The
// document header (everything before the first boundary) must be fed via
// Header. The sequential machine keeps the document context (root
// object, features array) open across repairs; accepted parallel blocks
// simply advance the resume offset past the regions they covered.
func NewPATFold(input []byte, cfg *Config, sink func(FeatureOut)) *PATFold {
	return &PATFold{
		input:  input,
		cfg:    cfg,
		sink:   sink,
		seqM:   NewResolvedMachine(input, cfg, sink),
		seqLex: lexer.JSONDefault,
	}
}

// Header consumes the document prefix [0, firstBoundary) sequentially; it
// contains only the FeatureCollection wrapper, leaving the root object
// and features array open — the context every PAT block assumes.
func (fd *PATFold) Header(end int64) {
	fd.seqParse(0, end)
	fd.seqMode = false
}

func (fd *PATFold) seqParse(from, to int64) {
	fd.seqM.gapStart = from
	fd.seqLex = fd.seqM.scan(fd.seqLex, from, to)
	fd.resume = to
}

// seqClean reports whether the sequential machine is between features.
func (fd *PATFold) seqClean() bool {
	if fd.seqLex != lexer.JSONDefault || fd.seqM.strOpen >= 0 {
		return false
	}
	t := fd.seqM.top()
	return t == nil || t.sem == semFeatures
}

// Add merges the next PAT block (in input order). It returns the
// sequential machine's error, after which nothing more is emitted: what
// the sink saw is the prefix ParseSequential emits before the same error.
func (fd *PATFold) Add(br PATBlockResult) error {
	if err := fd.seqM.Err(); err != nil {
		return err
	}
	if fd.seqMode || fd.resume > br.Start {
		// The previous region spilled over this block's boundary: its
		// parallel results are untrustworthy. Re-parse sequentially.
		fd.Repaired++
		from := max64(fd.resume, br.Start)
		fd.seqParse(from, br.End)
		fd.seqMode = !fd.seqClean()
		return fd.seqM.Err()
	}
	// Normal path: accept the block's parallel results.
	for _, f := range br.Features {
		fd.sink(f)
	}
	switch {
	case br.baseClose >= 0:
		// The block closed a container it did not open. Only the
		// sequential machine, which holds the root object and the features
		// array, knows whether that is the document's tail or an error: it
		// parses the rest of the block. Not a repair — the block's
		// features stand.
		fd.seqParse(br.baseClose, br.End)
		fd.seqMode = !fd.seqClean()
	case br.Clean:
		fd.resume = br.End
	default:
		// The trailing feature spans the boundary (a mis-split
		// downstream): switch to sequential mode from the incomplete
		// feature.
		fd.Repaired++
		start := br.IncompleteOff
		if start < 0 {
			start = br.Start
		}
		fd.seqM.strOpen = -1
		fd.seqLex = lexer.JSONDefault
		fd.seqParse(start, br.End)
		fd.seqMode = !fd.seqClean()
	}
	return fd.seqM.Err()
}

// Skip advances the fold past [resume, end) without parsing. The warm
// sidecar path uses it for byte ranges whose features are all proven
// irrelevant to the query window, so no machine ever sees them. It
// reports false when a repair is in progress — the sequential machine
// would have to parse the skipped bytes to stay consistent, so the
// caller must abandon the warm pass instead of silently emitting
// pruned features.
func (fd *PATFold) Skip(end int64) bool {
	if fd.seqMode {
		return false
	}
	if end > fd.resume {
		fd.resume = end
	}
	return true
}

// Finish completes the fold, consuming any trailing input up to end, the
// end of the pass's last parsed block. When that is the end of the
// document, a container still open is an error, as it is to FAT's Fold;
// a pass that stops short of it (a shard, or a plan whose tail is
// skipped) leaves the document's wrapper open by design.
func (fd *PATFold) Finish(end int64) error {
	if fd.resume < end {
		fd.seqParse(fd.resume, end)
	}
	if end == int64(len(fd.input)) {
		return fd.seqM.endErr()
	}
	return fd.seqM.Err()
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// reparseConfig materialises geometry only: no properties, no Eval.
var reparseConfig Config

// ReparseFeature re-parses the single feature object starting at off in
// the shared input, used by the join pipeline's PARSER/BUFFER stage
// (paper §4.5: partitions store offsets, geometries rebuild on demand).
// The scan stops where the object closes.
func ReparseFeature(input []byte, off int64) (geom.Geometry, error) {
	m := acquireMachine(input, &reparseConfig, nil)
	m.patBase, m.single = true, true
	m.gapStart = off
	if off >= 0 && off < int64(len(input)) {
		m.scan(lexer.JSONDefault, off, int64(len(input)))
	}
	var out geom.Geometry
	found := len(m.features) > 0
	if found {
		out = m.features[0].Feature.Geom
	}
	clear(m.features) // the pooled machine must not pin the geometry
	releaseMachine(m)
	if !found {
		return nil, fmt.Errorf("geojson: no feature at offset %d", off)
	}
	return out, nil
}
