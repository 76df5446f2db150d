// Package geojson implements AT-GIS's GeoJSON processing: a fast
// sequential parser (the optimised "off-the-shelf" parser used by
// partially-associative pipelines, §3.5), a fully-associative block
// extractor built on the speculative JSON lexer and pushdown stack
// effects (§3.3), and a writer used by the dataset generators.
//
// The same extraction machine implements all execution modes:
//
//   - resolved mode: the document context is known (sequential parsing,
//     PAT blocks, merge-time replay, reprocessing fallback);
//   - speculative mode: the block's base context — the pushdown stack
//     under its first byte — is unknown; tokens governed by unresolved
//     frames are deferred to a spec tape, feature objects anchor on their
//     "type":"Feature" member (the paper's format-structure speculation
//     reduction), and deferred events are resolved during the ordered
//     merge. The lexer state at the block start is an input of the run,
//     not part of the speculation (fat.go).
//
// The machine is built for a zero-allocation steady state: frames live
// by value in a reused stack, coordinate levels and feature/geometry
// builders recycle through per-machine free lists, member keys are byte
// spans into the shared input, and property strings only materialise
// when a feature is emitted. The only per-feature allocations left are
// the exact-size geometry slices that escape into the result.
//
// Every machine owns its lexing (Machine.scan) and takes a second, fused
// path through the "coordinates" values of resolved frames: coords.go
// parses a regular coordinates array straight from the bytes — one
// numparse call per number, depth counters instead of frames — and
// accumulates the bounding box every FeatureOut carries. Anything
// irregular falls back to the token path below, which stays the
// reference. Recorded tokens reach OnToken from two places only: the
// anchor replay of the frame a "type":"Feature" member just resolved, and
// the fold's replay of a block's spec tape.
package geojson

import (
	"bytes"
	"fmt"
	"sync"

	"atgis/internal/at"
	"atgis/internal/coords"
	"atgis/internal/geom"
	"atgis/internal/lexer"
	"atgis/internal/numparse"
)

// sem labels the semantic role of a frame in the GeoJSON grammar.
type sem uint8

const (
	semUnresolved sem = iota // chained to the unknown block base
	semRootObj               // document root object (FeatureCollection, Feature or geometry)
	semFeatures              // "features" array
	semFeature               // feature object
	semGeometry              // geometry object
	semGeomList              // "geometries" array
	semCoord                 // inside "coordinates"
	semProps                 // inside "properties"
	semIgnore                // skipped subtree (foreign members)
)

func (s sem) String() string {
	switch s {
	case semUnresolved:
		return "unresolved"
	case semRootObj:
		return "root"
	case semFeatures:
		return "features"
	case semFeature:
		return "feature"
	case semGeometry:
		return "geometry"
	case semGeomList:
		return "geometries"
	case semCoord:
		return "coordinates"
	case semProps:
		return "properties"
	default:
		return "ignore"
	}
}

// geoKind is the parsed geometry type tag (replacing per-geometry type
// strings on the hot path).
type geoKind uint8

// Point … MultiPolygon are numbered by the nesting depth of their
// coordinates (scannedBox).
const (
	kindUnknown geoKind = iota
	kindPoint
	kindLineString
	kindPolygon
	kindMultiPolygon
	kindCollection
	kindOther // recognised type member, not one of the above
)

// geoKindOf classifies a raw "type" value without allocating.
func geoKindOf(b []byte) geoKind {
	switch string(b) {
	case "Point":
		return kindPoint
	case "LineString":
		return kindLineString
	case "Polygon":
		return kindPolygon
	case "MultiPolygon":
		return kindMultiPolygon
	case "GeometryCollection":
		return kindCollection
	default:
		return kindOther
	}
}

// coordLevel accumulates one nesting level of a coordinates array.
// Leaf levels (single positions) never reach a coordLevel: their two
// numbers accumulate inline in the frame.
type coordLevel struct {
	pts   []geom.Point
	rings []geom.Ring
	polys []geom.Polygon
}

// geoBuild assembles one geometry object.
type geoBuild struct {
	kind geoKind
	root *coordLevel // result of the closed coordinates root (nil for points)
	// rootX/rootY/rootN carry a bare-position coordinates root.
	rootX, rootY float64
	rootN        uint8
	children     []geom.Geometry
	// depth and box are set by the fused coordinate scanner: the nesting
	// depth of the positions (1 = bare position … 4 = MultiPolygon) and
	// the bounding box a geometry of that depth has. depth 0 means the
	// token path built the root and the box comes from the geometry.
	depth uint8
	box   geom.Box
}

// propSpan records one captured property as raw byte spans into the
// shared input; strings materialise only when the feature is emitted.
type propSpan struct {
	keyOff, valOff int64
	keyLen, valLen int32
	isStr          bool // quoted string value (unescape); else raw primitive text
}

// featBuild assembles one feature.
type featBuild struct {
	id      int64
	hasID   bool
	openOff int64
	props   []propSpan
	geo     *geoBuild
}

// frame is one open JSON container, stored by value on the machine's
// reused frame stack.
type frame struct {
	isArr     bool
	resolved  bool
	expectKey bool
	hasKey    bool
	sem       sem
	numCount  uint8 // inline position accumulator (semCoord leaves)
	// keyOff/keyLen span the pending member key's raw content in the
	// shared input (consumed by the next value).
	keyOff  int64
	keyLen  int32
	openOff int64
	// speculative-mode bookkeeping for anchoring:
	specStart int   // index into spec of this frame's open token
	gapAtOpen int64 // machine gapStart when the frame opened
	// numX/numY hold the first two numbers of a leaf position.
	numX, numY float64

	coord         *coordLevel // semCoord (lazily allocated for non-leaf levels)
	geo           *geoBuild   // semGeometry / semRootObj
	feat          *featBuild  // semFeature / semRootObj
	geoParentList *geoBuild   // collection to receive this geometry on close
}

// FeatureOut is an extracted feature plus the optional per-feature value
// computed in-block by Config.Eval (the transformation stage running
// inside the data-parallel phase).
type FeatureOut struct {
	Feature geom.Feature
	Val     any
	// Box is the geometry's bounding box — exactly Feature.Geom.Bound(),
	// the empty box for a feature without geometry. It is set even when
	// Config.Window or Config.BoundsOnly left Feature.Geom nil; the one
	// exception is a feature Config.BracketReject let the GeoJSON scanner,
	// the WKT line parser or OSM XML's pass 2 reject, whose Box contains
	// its bounds and misses Config.Window.
	Box geom.Box
}

// Event is one deferred item on a speculative block's spec tape: either a
// structural token in an unresolved region, or a skip marker standing in
// for a locally-extracted feature.
type Event struct {
	Tok     lexer.Token
	FeatIdx int32 // >= 0: skip marker indexing the variant's buffered features
	EndOff  int64 // skip markers: offset just past the feature's close
}

// Config controls extraction.
type Config struct {
	// PropKeys lists the metadata property keys to capture (the paper
	// compiles metadata filters into the parsing automaton, §4.4(1)).
	PropKeys []string
	// Eval, if set, runs on every extracted feature inside the parallel
	// phase and its result is carried on FeatureOut.Val.
	Eval func(*geom.Feature) any
	// EvalBox is Eval for callers that want the feature's bounding box
	// (FeatureOut.Box) rather than recomputing Geom.Bound(); when set it
	// runs instead of Eval.
	EvalBox func(*geom.Feature, geom.Box) any
	// Window, if set, rejects every feature whose bounding box misses it
	// before anything is materialised: the feature is still emitted, with
	// its ID, Offset and Box, but with no geometry, no properties and no
	// Eval — what a warm pass concludes about a feature the sidecar
	// pruned. The Box of a rejected feature is its exact bounding box
	// unless BracketReject is set.
	Window *geom.Box
	// BracketReject lets the fused GeoJSON scanner, the WKT line parser
	// (wkt.ParseFeature) and OSM XML's passes (osmxml.ParseElements and
	// Topology.Resolver, given Window) reject a feature under Window on
	// the box of its coordinates' integer brackets (numparse.Bracket) when
	// that box already misses Window, without converting a mantissa.
	// Such a feature's Box is a box that contains its bounds and misses
	// Window, not its exact bounds; what Window lets through keeps the
	// exact box. A pass whose consumer keeps the boxes of rejected
	// features (the sidecar recorder) must leave it clear.
	BracketReject bool
	// BoundsOnly extracts ID, Offset and Box only (the join's partition
	// pass): no geometry, no properties, no Eval.
	BoundsOnly bool

	// tokenOnly keeps resolved machines on the token path; the
	// differential tests set it to obtain the reference.
	tokenOnly bool
}

// Rejects is the reject-before-build rule every format's workers apply to
// a feature once its bounding box is known and before anything of it is
// built: under BoundsOnly nothing is ever built, under Window only what
// meets it. A rejected feature leaves its block as ID, Offset and Box —
// its exact box, or under BracketReject (GeoJSON, WKT and OSM XML)
// possibly a larger one that still misses Window, the box of its integer brackets.
func (c *Config) Rejects(box geom.Box) bool {
	return c.BoundsOnly || (c.Window != nil && !box.Intersects(*c.Window))
}

// Value runs EvalBox, or else Eval, on a feature Rejects let through. The
// callee may keep its argument, which therefore lives on the heap: it
// gets a copy made here, past the early return, so that a feature nobody
// evaluates costs no allocation.
func (c *Config) Value(f *geom.Feature, box geom.Box) any {
	if c.EvalBox == nil && c.Eval == nil {
		return nil
	}
	held := *f
	if c.EvalBox != nil {
		return c.EvalBox(&held, box)
	}
	return c.Eval(&held)
}

func (c *Config) wantsProp(key []byte) bool {
	for _, k := range c.PropKeys {
		if string(key) == k {
			return true
		}
	}
	return false
}

// Machine is the GeoJSON extraction pushdown machine.
type Machine struct {
	input    []byte
	cfg      *Config
	resolved bool

	frames   []frame
	gapStart int64
	strOpen  int64 // offset of the unmatched StrBegin quote, -1 if none

	spec       []Event // speculative mode: deferred events
	features   []FeatureOut
	onFeature  func(FeatureOut) // resolved mode emission
	tokenCount int
	err        error

	// free lists recycling builder state across features within (and,
	// for pooled machines, across) blocks.
	lvlFree  []*coordLevel
	geoFree  []*geoBuild
	featFree []*featBuild
	tailBuf  []Event // anchor-replay scratch

	// anchorPending requests an anchor replay after the current token.
	anchorPending bool
	// forceFeature resolves the next opened object frame as a feature
	// (used during anchor replay).
	forceFeature bool
	// patBase marks a machine parsing a PAT block that starts at a
	// feature boundary: top-level objects are features, and the scan stops
	// at the first base-level close, whose offset baseClose records (-1
	// until then): the document's tail, or an error only the fold's
	// sequential machine can tell apart from it.
	patBase   bool
	baseClose int64
	// single stops scan once the first top-level value has closed
	// (ReparseFeature).
	single bool

	// scanEnd bounds the current scan call; the fused coordinate scanner
	// never reads at or past it.
	scanEnd int64
	// sink takes the fused coordinate scanner's positions: it holds them
	// and makes the value's box.
	sink coords.Sink
}

// NewResolvedMachine returns a machine parsing from the document root
// with full context (sequential oracle, PAT blocks, merge replay).
func NewResolvedMachine(input []byte, cfg *Config, onFeature func(FeatureOut)) *Machine {
	return &Machine{input: input, cfg: cfg, resolved: true, strOpen: -1, onFeature: onFeature}
}

// machinePool recycles machines (frame stacks and free lists included)
// across PAT blocks; one machine is checked out per block in flight.
var machinePool = sync.Pool{New: func() any { return new(Machine) }}

// acquireMachine checks a pooled machine out and resets it for a new
// resolved parse.
func acquireMachine(input []byte, cfg *Config, onFeature func(FeatureOut)) *Machine {
	m := machinePool.Get().(*Machine)
	m.input, m.cfg, m.onFeature = input, cfg, onFeature
	m.resolved = true
	m.frames = m.frames[:0]
	m.gapStart = 0
	m.strOpen = -1
	m.spec = m.spec[:0]
	m.features = m.features[:0]
	m.tokenCount = 0
	m.err = nil
	m.anchorPending, m.forceFeature, m.patBase, m.single = false, false, false, false
	m.baseClose = -1
	return m
}

// releaseMachine returns a machine to the pool. Builder state reachable
// from still-open frames is dropped (the frames were truncated), but
// the free lists and stack backing survive for the next block.
func releaseMachine(m *Machine) {
	m.input, m.cfg, m.onFeature = nil, nil, nil
	machinePool.Put(m)
}

// acquireSpecMachine checks a pooled machine out for the speculative
// (FAT) runs of one block. The machine shell — frame stack, builder free
// lists, spec/feature accumulation buffers — recycles across blocks;
// resetSpecRun prepares it for each run and detachState moves the run's
// merge-travelling payload out so the shell can be reused immediately.
func acquireSpecMachine(input []byte, cfg *Config) *Machine {
	m := machinePool.Get().(*Machine)
	m.input, m.cfg, m.onFeature = input, cfg, nil
	m.resolved = false
	if m.features == nil {
		m.features = make([]FeatureOut, 0, 8)
	}
	return m
}

// resetSpecRun readies the machine for the next speculative run. The
// pooled shell may come from any resolved parse: every per-run flag is
// cleared, single included, or a machine ReparseFeature used last would
// stop this run at its first base-level close.
func (m *Machine) resetSpecRun(gapStart int64) {
	m.frames = m.frames[:0]
	m.gapStart = gapStart
	m.strOpen = -1
	m.spec = m.spec[:0]
	m.features = m.features[:0]
	m.tokenCount = 0
	m.err = nil
	m.anchorPending, m.forceFeature, m.patBase, m.single = false, false, false, false
}

// releaseSpecMachine returns a speculative machine to the shared pool.
// Its accumulation buffers hold stale values (cleared lazily by the next
// resetSpecRun/acquireMachine); drop the feature buffer's contents so
// emitted geometries do not outlive the block in the pool.
func releaseSpecMachine(m *Machine) {
	clear(m.features)
	m.features = m.features[:0]
	releaseMachine(m)
}

// specState is the detached payload of one speculative block variant:
// everything that must travel to the ordered merge (deferred spec tape,
// buffered features, open frames, end-of-block scalars, the error that
// stopped the run), copied out of the machine so the machine shell
// recycles through the pool like PAT machines do. The states themselves
// are pooled; the fold releases them once a block is merged.
type specState struct {
	lexStarts  []at.State
	spec       []Event
	features   []FeatureOut
	frames     []frame
	gapStart   int64
	strOpen    int64
	tokenCount int
	err        error
}

var specStatePool = sync.Pool{New: func() any { return new(specState) }}

// detachState moves the current variant's results into a pooled state,
// leaving the machine ready for resetSpecRun.
func (m *Machine) detachState(lexStarts []at.State) *specState {
	st := specStatePool.Get().(*specState)
	st.lexStarts = append(st.lexStarts[:0], lexStarts...)
	st.spec = append(st.spec[:0], m.spec...)
	st.features = append(st.features[:0], m.features...)
	st.frames = append(st.frames[:0], m.frames...)
	st.gapStart, st.strOpen, st.tokenCount, st.err = m.gapStart, m.strOpen, m.tokenCount, m.err
	return st
}

// releaseSpecState recycles a consumed variant state. The feature and
// frame buffers are cleared so emitted geometries and builder pointers
// do not leak through the pool.
func releaseSpecState(st *specState) {
	if st == nil {
		return
	}
	clear(st.features)
	clear(st.frames)
	specStatePool.Put(st)
}

// Free-list helpers.

func (m *Machine) newLvl() *coordLevel {
	if n := len(m.lvlFree); n > 0 {
		l := m.lvlFree[n-1]
		m.lvlFree = m.lvlFree[:n-1]
		return l
	}
	return &coordLevel{}
}

func (m *Machine) releaseLvl(l *coordLevel) {
	l.pts = l.pts[:0]
	l.rings = l.rings[:0]
	l.polys = l.polys[:0]
	m.lvlFree = append(m.lvlFree, l)
}

func (m *Machine) newGeo() *geoBuild {
	if n := len(m.geoFree); n > 0 {
		g := m.geoFree[n-1]
		m.geoFree = m.geoFree[:n-1]
		return g
	}
	return &geoBuild{}
}

func (m *Machine) releaseGeo(g *geoBuild) {
	if g.root != nil {
		m.releaseLvl(g.root)
	}
	*g = geoBuild{children: g.children[:0]}
	m.geoFree = append(m.geoFree, g)
}

func (m *Machine) newFeat(openOff int64) *featBuild {
	if n := len(m.featFree); n > 0 {
		fb := m.featFree[n-1]
		m.featFree = m.featFree[:n-1]
		fb.id, fb.hasID, fb.openOff, fb.geo = 0, false, openOff, nil
		fb.props = fb.props[:0]
		return fb
	}
	return &featBuild{openOff: openOff}
}

func (m *Machine) releaseFeat(fb *featBuild) {
	if fb.geo != nil {
		m.releaseGeo(fb.geo)
		fb.geo = nil
	}
	m.featFree = append(m.featFree, fb)
}

// Err returns the first structural error encountered.
func (m *Machine) Err() error { return m.err }

func (m *Machine) fail(format string, args ...any) {
	if m.err == nil {
		m.err = fmt.Errorf("geojson: "+format, args...)
	}
}

// top returns the innermost frame, or nil at (relative) base.
func (m *Machine) top() *frame {
	if len(m.frames) == 0 {
		return nil
	}
	return &m.frames[len(m.frames)-1]
}

// key returns the pending member key bytes of f, or nil when no key is
// pending. The common case returns the raw span between the quotes;
// keys containing escapes (rare) are unescaped so grammar keywords and
// property filters match their decoded spelling.
func (m *Machine) key(f *frame) []byte {
	if !f.hasKey {
		return nil
	}
	raw := m.input[f.keyOff : f.keyOff+int64(f.keyLen)]
	if bytes.IndexByte(raw, '\\') >= 0 {
		return []byte(unescape(raw))
	}
	return raw
}

func (f *frame) setKey(begin, end int64) {
	f.keyOff = begin + 1
	f.keyLen = int32(end - begin - 1)
	f.hasKey = true
}

// OnToken processes one structural token; gaps between tokens are parsed
// for primitive values automatically.
//
//atgis:hotpath
func (m *Machine) OnToken(tok lexer.Token) {
	if m.err != nil {
		return
	}
	m.tokenCount++
	// The innermost frame before this token mutates anything: shared by
	// the gap parse and the per-kind handling below (top() per token is
	// measurable on the hot path).
	t := m.top()
	if m.strOpen < 0 {
		m.processGap(t, m.gapStart, tok.Off)
	}
	switch tok.Kind {
	case lexer.KindObjOpen:
		m.openFrame(false, tok)
	case lexer.KindArrOpen:
		m.openFrame(true, tok)
	case lexer.KindObjClose, lexer.KindArrClose:
		m.closeFrame(tok)
	case lexer.KindComma:
		m.record(t, tok)
		if t != nil && !t.isArr {
			t.expectKey = true
		}
	case lexer.KindColon:
		m.record(t, tok)
		if t != nil && !t.isArr {
			t.expectKey = false
		}
	case lexer.KindStrBegin:
		m.record(t, tok)
		m.strOpen = tok.Off
	case lexer.KindStrEnd:
		m.record(t, tok)
		m.onString(m.strOpen, tok.Off)
		m.strOpen = -1
	}
	m.gapStart = tok.Off + 1
	if m.anchorPending {
		m.anchorPending = false
		m.performAnchor(tok.Off)
	}
}

// record appends the token to the spec tape when the context (t, the
// innermost frame before the token) is unresolved.
func (m *Machine) record(t *frame, tok lexer.Token) {
	resolved := m.resolved
	if t != nil {
		resolved = t.resolved
	}
	if !resolved && !m.forceFeature {
		m.spec = append(m.spec, Event{Tok: tok, FeatIdx: -1})
	}
}

func (m *Machine) openFrame(isArr bool, tok lexer.Token) {
	m.record(m.top(), tok)
	m.frames = append(m.frames, frame{
		isArr:     isArr,
		openOff:   tok.Off,
		expectKey: !isArr,
		specStart: len(m.spec) - 1,
		gapAtOpen: tok.Off, // gap before the open was already processed
	})
	n := len(m.frames)
	f := &m.frames[n-1]
	var parent *frame
	if n >= 2 {
		parent = &m.frames[n-2]
	}
	m.deriveSem(f, parent)
}

// deriveSem assigns the semantic role of a new frame from its parent
// context and the pending member key.
func (m *Machine) deriveSem(f, parent *frame) {
	if m.forceFeature && !f.isArr {
		// Anchor replay: this frame is the feature whose "type" member
		// identified it, regardless of the (unknown) parent context.
		m.forceFeature = false
		f.resolved = true
		f.sem = semFeature
		f.feat = m.newFeat(f.openOff)
		return
	}
	if parent == nil {
		switch {
		case m.patBase:
			// PAT blocks start at feature boundaries: top-level objects
			// are features.
			f.resolved = true
			if f.isArr {
				f.sem = semIgnore
			} else {
				f.sem = semFeature
				f.feat = m.newFeat(f.openOff)
			}
		case m.resolved:
			// Document root.
			f.resolved = true
			if f.isArr {
				f.sem = semFeatures // bare array of features
			} else {
				f.sem = semRootObj
				f.feat = m.newFeat(f.openOff)
			}
		default:
			f.sem = semUnresolved
		}
		return
	}
	if !parent.resolved {
		f.sem = semUnresolved
		return
	}
	f.resolved = true
	key := m.key(parent)
	parent.hasKey = false
	f.sem = classifySem(parent.sem, key, f.isArr)
	// Wire assembly state according to the assigned role.
	switch f.sem {
	case semGeometry:
		if parent.sem == semGeomList {
			f.geo = m.newGeo()
			f.feat = parent.feat // may be nil for nested collections
			f.geoParentList = parent.geo
		} else {
			f.geo = m.newGeo()
			parent.feat.geo = f.geo
		}
	case semGeomList:
		if parent.sem == semRootObj && parent.geo == nil {
			parent.geo = m.newGeo()
			parent.geo.kind = kindCollection
			parent.feat.geo = parent.geo
		} else if parent.sem == semGeometry {
			parent.geo.kind = kindCollection
		}
		f.geo = parent.geo
	case semCoord:
		if parent.sem == semRootObj && parent.geo == nil {
			parent.geo = m.newGeo()
			parent.feat.geo = parent.geo
		}
		// Coordinate levels allocate lazily: leaf positions accumulate
		// inline in the frame and never need a coordLevel.
		f.geo = parent.geo
	case semProps:
		f.feat = parent.feat
	case semFeature:
		f.feat = m.newFeat(f.openOff)
	}
}

// classifySem is the pure GeoJSON-grammar classifier shared by the
// machine and the fold's structural shadow: the semantic role of a frame
// opened under (parentSem, key).
func classifySem(parentSem sem, key []byte, isArr bool) sem {
	switch parentSem {
	case semRootObj:
		switch string(key) {
		case "features":
			return semFeatures
		case "geometry":
			return semGeometry
		case "geometries":
			return semGeomList
		case "coordinates":
			return semCoord
		case "properties":
			return semProps
		}
		return semIgnore
	case semFeatures:
		if !isArr {
			return semFeature
		}
		return semIgnore
	case semFeature:
		switch string(key) {
		case "geometry":
			return semGeometry
		case "properties":
			return semProps
		}
		return semIgnore
	case semGeometry:
		switch string(key) {
		case "coordinates":
			return semCoord
		case "geometries":
			return semGeomList
		}
		return semIgnore
	case semGeomList:
		if !isArr {
			return semGeometry
		}
		return semIgnore
	case semCoord:
		return semCoord
	case semProps:
		return semProps
	default:
		return semIgnore
	}
}

func (m *Machine) closeFrame(tok lexer.Token) {
	m.record(m.top(), tok)
	if len(m.frames) == 0 {
		switch {
		case m.patBase:
			if m.baseClose < 0 {
				m.baseClose = tok.Off
			}
		case m.resolved:
			m.fail("unmatched close at offset %d", tok.Off)
		}
		// A speculative base pop is recorded on the spec tape above.
		return
	}
	// Point at the top slot and truncate. The dead slot stays valid for
	// the rest of this call: nothing below pushes onto m.frames, so no
	// append can overwrite it (avoids copying the ~100-byte frame).
	f := &m.frames[len(m.frames)-1]
	if f.isArr != (tok.Kind == lexer.KindArrClose) {
		m.fail("mismatched close at offset %d", tok.Off)
		return
	}
	m.frames = m.frames[:len(m.frames)-1]
	if !f.resolved {
		return
	}
	switch f.sem {
	case semCoord:
		m.closeCoord(f)
	case semGeometry:
		if f.geoParentList != nil {
			// A member without usable coordinates builds no geometry and
			// is left out: a nil member would panic the collection's
			// Bound and point walks.
			if child := m.buildGeo(f.geo); child != nil {
				f.geoParentList.children = append(f.geoParentList.children, child)
			}
			m.releaseGeo(f.geo)
		}
	case semFeature:
		m.emitFeature(f.feat, tok.Off)
	case semRootObj:
		if f.feat != nil && (f.feat.geo != nil || f.feat.hasID) {
			m.emitFeature(f.feat, tok.Off)
		} else if f.feat != nil {
			m.releaseFeat(f.feat)
		}
	}
}

// coordOf returns parent's coordinate accumulator, allocating it on
// first use.
func (m *Machine) coordOf(parent *frame) *coordLevel {
	if parent.coord == nil {
		parent.coord = m.newLvl()
	}
	return parent.coord
}

// closeCoord folds a finished coordinate level into its parent. Escaping
// slices (rings, polygons) are exact-size copies so the accumulation
// buffers recycle through the machine's free list.
func (m *Machine) closeCoord(f *frame) {
	parent := m.top()
	if parent == nil || parent.sem != semCoord || !parent.resolved {
		// Coordinates root closed.
		f.geo.root = f.coord
		f.geo.rootX, f.geo.rootY, f.geo.rootN = f.numX, f.numY, f.numCount
		f.geo.depth = 0
		return
	}
	if f.numCount >= 2 {
		// Leaf position: fold inline numbers into the parent's points.
		into := m.coordOf(parent)
		into.pts = append(into.pts, geom.Point{X: f.numX, Y: f.numY})
		if f.coord != nil {
			m.releaseLvl(f.coord)
		}
		return
	}
	lvl := f.coord
	if lvl == nil {
		return // empty array
	}
	switch {
	case len(lvl.pts) > 0:
		ring := make(geom.Ring, len(lvl.pts))
		copy(ring, lvl.pts)
		into := m.coordOf(parent)
		into.rings = append(into.rings, ring)
	case len(lvl.rings) > 0:
		poly := make(geom.Polygon, len(lvl.rings))
		copy(poly, lvl.rings)
		into := m.coordOf(parent)
		into.polys = append(into.polys, poly)
	case len(lvl.polys) > 0:
		// Deeper nesting than MultiPolygon: flatten.
		into := m.coordOf(parent)
		into.polys = append(into.polys, lvl.polys...)
	}
	m.releaseLvl(lvl)
}

// isCollection reports whether buildGeo yields a Collection of g's
// children rather than a geometry of its own coordinates.
func (g *geoBuild) isCollection() bool {
	return g.kind == kindCollection || len(g.children) > 0
}

// buildGeo converts the accumulated coordinate tree into a Geometry.
// All returned slices are exact-size copies owned by the geometry, so
// the builder's buffers stay recyclable.
func (m *Machine) buildGeo(g *geoBuild) geom.Geometry {
	if g == nil {
		return nil
	}
	if g.isCollection() {
		children := make([]geom.Geometry, len(g.children))
		copy(children, g.children)
		return geom.Collection(children)
	}
	r := g.root
	switch g.kind {
	case kindPoint:
		if g.rootN >= 2 {
			return geom.PointGeom{P: geom.Point{X: g.rootX, Y: g.rootY}}
		}
		return nil
	case kindLineString:
		if r == nil {
			return geom.LineString(nil)
		}
		ls := make(geom.LineString, len(r.pts))
		copy(ls, r.pts)
		return ls
	case kindPolygon:
		if r == nil {
			return geom.Polygon(nil)
		}
		poly := make(geom.Polygon, len(r.rings))
		copy(poly, r.rings)
		return poly
	case kindMultiPolygon:
		if r == nil {
			return geom.MultiPolygon(nil)
		}
		mp := make(geom.MultiPolygon, len(r.polys))
		copy(mp, r.polys)
		return mp
	}
	// Untyped or unknown: infer from the deepest populated level.
	switch {
	case r != nil && len(r.polys) > 0:
		mp := make(geom.MultiPolygon, len(r.polys))
		copy(mp, r.polys)
		return mp
	case r != nil && len(r.rings) > 0:
		poly := make(geom.Polygon, len(r.rings))
		copy(poly, r.rings)
		return poly
	case r != nil && len(r.pts) > 0:
		ls := make(geom.LineString, len(r.pts))
		copy(ls, r.pts)
		return ls
	case g.rootN >= 2:
		return geom.PointGeom{P: geom.Point{X: g.rootX, Y: g.rootY}}
	}
	return nil
}

// emitFeature finishes a feature. Its bounding box is known before its
// geometry exists when the fused scanner parsed the coordinates, so a
// feature that misses Config.Window (or any feature under BoundsOnly) is
// emitted without building geometry, properties or the Eval value.
func (m *Machine) emitFeature(fb *featBuild, closeOff int64) {
	if fb == nil {
		return
	}
	out := FeatureOut{Feature: geom.Feature{ID: fb.id, Offset: fb.openOff}}
	scanned := fb.geo != nil && fb.geo.depth > 0 && !fb.geo.isCollection()
	if scanned {
		out.Box = fb.geo.scannedBox()
	} else {
		out.Feature.Geom = m.buildGeo(fb.geo)
		out.Box = out.Feature.Bound()
	}
	if m.cfg.Rejects(out.Box) {
		out.Feature.Geom = nil
	} else {
		if scanned {
			out.Feature.Geom = m.buildGeo(fb.geo)
		}
		out.Feature.Properties = m.buildProps(fb)
		out.Val = m.cfg.Value(&out.Feature, out.Box)
	}
	m.releaseFeat(fb)
	if m.onFeature != nil {
		m.onFeature(out)
		return
	}
	// No sink: buffer the feature (speculative blocks, ReparseFeature).
	// A speculative block also places a skip marker on the spec tape so
	// merge-time replay validates the feature in order.
	idx := int32(len(m.features))
	m.features = append(m.features, out)
	if !m.resolved {
		m.spec = append(m.spec, Event{
			Tok:     lexer.Token{Off: out.Feature.Offset},
			FeatIdx: idx,
			EndOff:  closeOff + 1,
		})
	}
}

// buildProps materialises the captured property spans into the feature's
// string map — the one place property strings are allocated.
func (m *Machine) buildProps(fb *featBuild) map[string]string {
	if len(fb.props) == 0 {
		return nil
	}
	props := make(map[string]string, len(fb.props))
	for _, ps := range fb.props {
		key := unescape(m.input[ps.keyOff : ps.keyOff+int64(ps.keyLen)])
		val := m.input[ps.valOff : ps.valOff+int64(ps.valLen)]
		if ps.isStr {
			props[key] = unescape(val)
		} else {
			props[key] = trimSpaceASCII(string(val))
		}
	}
	return props
}

// onString handles a completed string [begin, end] (quote offsets).
func (m *Machine) onString(begin, end int64) {
	f := m.top()
	if f == nil || !f.resolved {
		// Unresolved context: only anchor detection applies, handled by
		// watching for "type":"Feature" in unresolved object frames.
		if f != nil && !f.isArr {
			m.speculativeStringInObj(f, begin, end)
		}
		return
	}
	if begin < 0 {
		// String began before this machine's view (resolved replay
		// continuing a split string): value unavailable, but resolved
		// replay always has full context, so this cannot happen.
		return
	}
	if !f.isArr && f.expectKey {
		f.setKey(begin, end)
		return
	}
	key := m.key(f)
	f.hasKey = false
	raw := m.input[begin+1 : end]
	switch f.sem {
	case semRootObj, semFeature:
		switch string(key) {
		case "type":
			// Feature-level type; geometry kind handled in semGeometry.
			if f.sem == semRootObj && f.feat != nil {
				if string(raw) != "Feature" && string(raw) != "FeatureCollection" {
					// Bare geometry document: remember the kind.
					if f.geo == nil {
						f.geo = m.newGeo()
						f.feat.geo = f.geo
					}
					f.geo.kind = geoKindOf(raw)
				}
			}
		case "id":
			if fb := f.feat; fb != nil {
				fb.id = hashID(raw)
				fb.hasID = true
			}
		}
	case semGeometry:
		if string(key) == "type" {
			f.geo.kind = geoKindOf(raw)
		}
	case semProps:
		if f.feat != nil && m.cfg.wantsProp(key) {
			f.feat.props = append(f.feat.props, propSpan{
				keyOff: f.keyOff, keyLen: f.keyLen,
				valOff: begin + 1, valLen: int32(end - begin - 1),
				isStr: true,
			})
		}
	}
}

// speculativeStringInObj watches unresolved object frames for the
// "type":"Feature" anchor (paper §3.5's format-knowledge trick applied to
// fully-associative execution: the anchor resolves the frame locally and
// the ordered merge validates the assumption).
func (m *Machine) speculativeStringInObj(f *frame, begin, end int64) {
	if f.expectKey {
		f.setKey(begin, end)
		return
	}
	key := m.key(f)
	f.hasKey = false
	if string(key) == "type" && string(m.input[begin+1:end]) == "Feature" {
		m.anchorPending = true
	}
}

// performAnchor rewinds the innermost unresolved frame and replays its
// deferred events as a resolved feature frame.
func (m *Machine) performAnchor(lastOff int64) {
	f := m.top()
	if f == nil || f.resolved || f.isArr {
		return
	}
	// Remove the frame and reclaim its spec tail.
	specStart, gapAtOpen := f.specStart, f.gapAtOpen
	m.frames = m.frames[:len(m.frames)-1]
	m.tailBuf = append(m.tailBuf[:0], m.spec[specStart:]...)
	m.spec = m.spec[:specStart]
	// Replay with the frame forced to a resolved feature.
	m.forceFeature = true
	m.gapStart = gapAtOpen
	for _, ev := range m.tailBuf {
		if ev.FeatIdx >= 0 {
			// Features cannot nest; no markers can appear in the tail.
			continue
		}
		m.OnToken(ev.Tok)
	}
	m.gapStart = lastOff + 1
}

// processGap parses the primitive text (if any) between two structural
// tokens: JSON guarantees at most one number or literal per gap. This is
// the point-parser SLT of the paper: structural parsing is separated from
// floating-point handling.
func (m *Machine) processGap(f *frame, from, to int64) {
	if from >= to {
		return
	}
	if f == nil || !f.resolved {
		return
	}
	b := m.input[from:to]
	i := 0
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	if i == len(b) {
		return
	}
	c := b[i]
	if c == '-' || c == '+' || (c >= '0' && c <= '9') || c == '.' {
		val, ok := parseFloat(b[i:])
		if !ok {
			// Malformed number: still consume the pending key, or the
			// next keyless value would be attributed to it.
			if !f.isArr {
				f.hasKey = false
			}
			return
		}
		if f.sem == semCoord {
			// Hot path: coordinate arrays carry no member keys.
			switch f.numCount {
			case 0:
				f.numX = val
			case 1:
				f.numY = val
			}
			if f.numCount < 255 {
				f.numCount++
			}
			return
		}
		key := m.key(f)
		if !f.isArr {
			f.hasKey = false
		}
		switch f.sem {
		case semFeature, semRootObj:
			if string(key) == "id" && f.feat != nil {
				f.feat.id = int64(val)
				f.feat.hasID = true
			}
		case semProps:
			if f.feat != nil && m.cfg.wantsProp(key) {
				f.feat.props = append(f.feat.props, propSpan{
					keyOff: f.keyOff, keyLen: f.keyLen,
					valOff: from + int64(i), valLen: int32(len(b) - i),
				})
			}
		}
		return
	}
	key := m.key(f)
	if !f.isArr {
		f.hasKey = false
	}
	// Literal (true/false/null): capture for filtered properties only.
	if f.sem == semProps && f.feat != nil && m.cfg.wantsProp(key) {
		f.feat.props = append(f.feat.props, propSpan{
			keyOff: f.keyOff, keyLen: f.keyLen,
			valOff: from + int64(i), valLen: int32(len(b) - i),
		})
	}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func trimSpaceASCII(s string) string {
	start := 0
	for start < len(s) && isSpace(s[start]) {
		start++
	}
	end := len(s)
	for end > start && isSpace(s[end-1]) {
		end--
	}
	return s[start:end]
}

// parseFloat parses the decimal number at the start of b via the shared
// fast parser (exact single-rounding fast path, strconv fallback).
func parseFloat(b []byte) (float64, bool) {
	return numparse.Float(b)
}

func unescape(b []byte) string {
	hasEsc := false
	for _, c := range b {
		if c == '\\' {
			hasEsc = true
			break
		}
	}
	if !hasEsc {
		return string(b)
	}
	out := make([]byte, 0, len(b))
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c != '\\' || i+1 >= len(b) {
			out = append(out, c)
			continue
		}
		i++
		switch b[i] {
		case 'n':
			out = append(out, '\n')
		case 't':
			out = append(out, '\t')
		case 'r':
			out = append(out, '\r')
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'u':
			// Keep the raw sequence: metadata filters in AT-GIS compare
			// raw values, and the datasets avoid non-ASCII escapes.
			out = append(out, '\\', 'u')
		default:
			out = append(out, b[i])
		}
	}
	return string(out)
}

// hashID derives a numeric id from a string id (FNV-1a).
func hashID(b []byte) int64 {
	var h uint64 = 14695981039346656037
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return int64(h)
}
