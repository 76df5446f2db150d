// Package wkt reads and writes the well-known-text spatial format used
// by the paper's OSM-W dataset: one object per line, a numeric id, a tab,
// and the WKT geometry. Newline-delimited records make WKT the easiest
// format to split (paper §2.2), so parallel execution uses a simple
// line-boundary splitter with no speculation.
package wkt

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"sync"

	"atgis/internal/geojson"
	"atgis/internal/geom"
	"atgis/internal/numparse"
)

// ParseLine parses one record of the form "<id>\t<WKT>", or a bare WKT
// geometry ("POINT (1 2)") with no id prefix, in which case the line's
// byte offset doubles as the feature id. off is the byte offset of the
// line start, recorded on the feature for join re-parsing.
func ParseLine(line []byte, off int64) (geom.Feature, error) {
	out, err := ParseFeature(line, off, &buildAll)
	return out.Feature, err
}

// buildAll is the extraction contract of a caller that wants every
// geometry and nothing else.
var buildAll geojson.Config

// ParseFeature is ParseLine under the extraction contract the GeoJSON
// machine and OSM XML's pass 2 honour: ID, Offset and Box always, the
// geometry and cfg's evaluation only for a feature cfg does not reject.
// The box accumulates while the line is scanned and equals Geom.Bound()
// bit for bit; the rejection is decided on it before a point, a ring or a
// geometry is allocated. Only blanks and one carriage return may follow
// the geometry: a lost newline must not swallow the next record.
func ParseFeature(line []byte, off int64, cfg *geojson.Config) (geojson.FeatureOut, error) {
	p := parserPool.Get().(*parser)
	defer p.release()
	return p.feature(line, off, cfg)
}

// feature is ParseFeature on this parser's scratch buffers.
//
//atgis:hotpath
func (p *parser) feature(line []byte, off int64, cfg *geojson.Config) (geojson.FeatureOut, error) {
	out := geojson.FeatureOut{Feature: geom.Feature{ID: off, Offset: off}}
	i := 0
	if len(line) == 0 || !isAlpha(line[0]) {
		// Not a bare geometry line: parse the id column.
		id, neg := int64(0), false
		if i < len(line) && line[i] == '-' {
			neg = true
			i++
		}
		start := i
		for i < len(line) && line[i] >= '0' && line[i] <= '9' {
			id = id*10 + int64(line[i]-'0')
			i++
		}
		if i == start {
			return out, fmt.Errorf("wkt: missing id in %.40q", line)
		}
		if neg {
			id = -id
		}
		out.Feature.ID = id
		for i < len(line) && (line[i] == '\t' || line[i] == ' ') {
			i++
		}
	}
	p.reset(line[i:], !cfg.BoundsOnly)
	box, err := p.scan()
	if err == nil {
		err = p.end()
	}
	if err != nil {
		return out, err
	}
	out.Box = box
	if !cfg.Rejects(box) {
		out.Feature.Geom = p.build()
		out.Val = cfg.Value(&out.Feature, box)
	}
	return out, nil
}

func isAlpha(c byte) bool { return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') }

// parserPool recycles parsers (and their scratch buffers) across lines,
// so steady-state parsing allocates only the exact-size slices that
// escape into geometries.
var parserPool = sync.Pool{New: func() any { return new(parser) }}

// parser scans a geometry before it builds it. scan validates the text
// and returns the bounding box; what it read stays in scratch buffers —
// every position of the line in pts, in order, and what the positions
// form in shape — from which build makes the geometry if the caller
// still wants it. A line that is rejected on its box therefore allocates
// nothing.
type parser struct {
	b []byte
	i int
	// keep is false for a caller that will never build: positions are
	// then not even copied to pts.
	keep bool
	pts  []geom.Point
	// shape is the geometry in prefix form: a kind, then for a
	// LineString its length, for a Polygon its ring count and each
	// ring's length, for a MultiPolygon its polygon count and each
	// polygon as such, for a collection its member count and each member
	// from its kind on.
	shape []int
	// build's read positions in shape and pts.
	si, pi int
}

const (
	shapePoint = iota
	shapeLine
	shapePolygon
	shapeMulti
	shapeCollection
)

func (p *parser) reset(b []byte, keep bool) {
	p.b, p.i, p.keep = b, 0, keep
	p.pts, p.shape, p.si, p.pi = p.pts[:0], p.shape[:0], 0, 0
}

// release returns p to the pool, letting go of the caller's bytes.
func (p *parser) release() {
	p.b = nil
	parserPool.Put(p)
}

func (p *parser) ws() {
	for p.i < len(p.b) && (p.b[p.i] == ' ' || p.b[p.i] == '\t') {
		p.i++
	}
}

// keyword returns the raw bytes of the leading keyword; callers compare
// via switch string(kw), which the compiler keeps allocation-free.
func (p *parser) keyword() []byte {
	p.ws()
	start := p.i
	for p.i < len(p.b) && isAlpha(p.b[p.i]) {
		p.i++
	}
	return p.b[start:p.i]
}

func (p *parser) expect(c byte) error {
	p.ws()
	if p.i >= len(p.b) || p.b[p.i] != c {
		return fmt.Errorf("wkt: expected %q at %d in %.60q", c, p.i, p.b)
	}
	p.i++
	return nil
}

func (p *parser) peek() byte {
	p.ws()
	if p.i >= len(p.b) {
		return 0
	}
	return p.b[p.i]
}

// end accepts blanks and one carriage return after the geometry (the
// join's reparser hands a CRLF line over with its CR) and nothing else.
func (p *parser) end() error {
	if p.peek() == '\r' {
		p.i++
	}
	if p.i < len(p.b) {
		return fmt.Errorf("wkt: unexpected bytes after the geometry at %d in %.60q", p.i, p.b)
	}
	return nil
}

func (p *parser) number() (float64, error) {
	p.ws()
	v, n, ok := numparse.Prefix(p.b[p.i:])
	if !ok {
		return 0, fmt.Errorf("wkt: expected number at %d in %.60q", p.i, p.b)
	}
	p.i += n
	// A number must end at a WKT delimiter; anything else (e.g. "2-3")
	// is a corrupt token, not two numbers.
	if p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', ',', ')':
		default:
			return 0, fmt.Errorf("wkt: malformed number at %d in %.60q", p.i, p.b)
		}
	}
	return v, nil
}

func (p *parser) point() (geom.Point, error) {
	x, err := p.number()
	if err != nil {
		return geom.Point{}, err
	}
	y, err := p.number()
	if err != nil {
		return geom.Point{}, err
	}
	pt := geom.Point{X: x, Y: y}
	if p.keep {
		p.pts = append(p.pts, pt)
	}
	return pt, nil
}

// more reports whether a list goes on, stepping over the comma if so.
func (p *parser) more() bool {
	if p.peek() != ',' {
		return false
	}
	p.i++
	return true
}

// points scans "(x y, x y, ...)", notes its length in shape and returns
// its box.
func (p *parser) points() (geom.Box, error) {
	box, n := geom.EmptyBox(), 0
	if err := p.expect('('); err != nil {
		return box, err
	}
	for ok := true; ok; ok = p.more() {
		pt, err := p.point()
		if err != nil {
			return box, err
		}
		box = box.ExtendPoint(pt)
		n++
	}
	p.shape = append(p.shape, n)
	return box, p.expect(')')
}

// rings scans a polygon, "((...),(...))". Its box is the outer ring's,
// as Polygon.Bound has it.
func (p *parser) rings() (geom.Box, error) {
	var box geom.Box
	if err := p.expect('('); err != nil {
		return box, err
	}
	count := len(p.shape)
	p.shape = append(p.shape, 0)
	for ok := true; ok; ok = p.more() {
		b, err := p.points()
		if err != nil {
			return box, err
		}
		if p.shape[count] == 0 {
			box = b
		}
		p.shape[count]++
	}
	return box, p.expect(')')
}

// scan reads one geometry into the scratch buffers and returns its
// bounding box, computed the way the built geometry's Bound computes it.
func (p *parser) scan() (geom.Box, error) {
	kw := p.keyword()
	switch string(kw) {
	case "POINT":
		p.shape = append(p.shape, shapePoint)
		if err := p.expect('('); err != nil {
			return geom.Box{}, err
		}
		pt, err := p.point()
		if err != nil {
			return geom.Box{}, err
		}
		return geom.BoxOf(pt), p.expect(')')
	case "LINESTRING":
		p.shape = append(p.shape, shapeLine)
		return p.points()
	case "POLYGON":
		p.shape = append(p.shape, shapePolygon)
		return p.rings()
	case "MULTIPOLYGON":
		return p.members(shapeMulti)
	case "GEOMETRYCOLLECTION":
		return p.members(shapeCollection)
	default:
		return geom.Box{}, fmt.Errorf("wkt: unknown geometry %q", kw)
	}
}

// members scans the parenthesised list of a MultiPolygon's polygons or a
// collection's geometries; its box is the union of theirs.
func (p *parser) members(kind int) (geom.Box, error) {
	count := len(p.shape) + 1
	p.shape = append(p.shape, kind, 0)
	box := geom.EmptyBox()
	if err := p.expect('('); err != nil {
		return box, err
	}
	for ok := true; ok; ok = p.more() {
		var b geom.Box
		var err error
		if kind == shapeMulti {
			b, err = p.rings()
		} else {
			b, err = p.scan()
		}
		if err != nil {
			return box, err
		}
		box = box.Union(b)
		p.shape[count]++
	}
	return box, p.expect(')')
}

// next reads one entry of shape.
func (p *parser) next() int {
	p.si++
	return p.shape[p.si-1]
}

// takePoints copies the next list out of pts: one exact-size allocation.
func (p *parser) takePoints() []geom.Point {
	pts := make([]geom.Point, p.next())
	p.pi += copy(pts, p.pts[p.pi:])
	return pts
}

func (p *parser) takePolygon() geom.Polygon {
	rings := make(geom.Polygon, p.next())
	for i := range rings {
		rings[i] = p.takePoints()
	}
	return rings
}

// build makes the geometry scan read (keep must have been set).
func (p *parser) build() geom.Geometry {
	switch p.next() {
	case shapePoint:
		p.pi++
		return geom.PointGeom{P: p.pts[p.pi-1]}
	case shapeLine:
		return geom.LineString(p.takePoints())
	case shapePolygon:
		return p.takePolygon()
	case shapeMulti:
		mp := make(geom.MultiPolygon, p.next())
		for i := range mp {
			mp[i] = p.takePolygon()
		}
		return mp
	default:
		coll := make(geom.Collection, p.next())
		for i := range coll {
			coll[i] = p.build()
		}
		return coll
	}
}

// SplitLinesStream yields the offsets of line starts in increasing order
// as they are found, so blocks can be formed on newline boundaries, the
// paper's fixed-block strategy for simple formats. Block boundaries are
// chosen at the first newline at or after each multiple of blockSize.
// The scan stops early when yieldCut returns false.
func SplitLinesStream(input []byte, blockSize int, yieldCut func(int64) bool) {
	if blockSize < 1 {
		blockSize = 1
	}
	for target := blockSize; target < len(input); {
		i := target
		for i < len(input) && input[i-1] != '\n' {
			i++
		}
		if i >= len(input) {
			break
		}
		if !yieldCut(int64(i)) {
			return
		}
		target = i + blockSize
	}
}

// NextLineStart returns the offset of the first line start at or after
// from (from itself when it already begins a line), or len(input) when
// none remains. Like the GeoJSON boundary scan, the result depends only
// on the bytes at and after from-1, so independent shard passes align
// adjacent raw ranges to the same line boundary.
func NextLineStart(input []byte, from int64) int64 {
	if from <= 0 {
		return 0
	}
	n := int64(len(input))
	if from >= n {
		return n
	}
	i := from
	for i < n && input[i-1] != '\n' {
		i++
	}
	return i
}

// EachLine invokes fn for every non-empty line in block (offsets
// absolute).
func EachLine(input []byte, start, end int64, fn func(line []byte, off int64) error) error {
	pos := start
	for pos < end {
		nl := end
		if i := bytes.IndexByte(input[pos:end], '\n'); i >= 0 {
			nl = pos + int64(i)
		}
		line := input[pos:nl]
		if len(line) > 0 && line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
		if len(line) > 0 {
			if err := fn(line, pos); err != nil {
				return err
			}
		}
		pos = nl + 1
	}
	return nil
}

// Writer emits one feature per line in "<id>\t<WKT>" form.
type Writer struct {
	w   *bufio.Writer
	err error
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

func (w *Writer) str(s string) {
	if w.err == nil {
		_, w.err = w.w.WriteString(s)
	}
}

func (w *Writer) num(v float64) {
	if w.err == nil {
		var buf [32]byte
		_, w.err = w.w.Write(strconv.AppendFloat(buf[:0], v, 'g', -1, 64))
	}
}

// WriteFeature appends one record.
func (w *Writer) WriteFeature(f *geom.Feature) {
	w.str(strconv.FormatInt(f.ID, 10))
	w.str("\t")
	w.writeGeometry(f.Geom)
	w.str("\n")
}

func (w *Writer) writeGeometry(g geom.Geometry) {
	switch t := g.(type) {
	case geom.PointGeom:
		w.str("POINT (")
		w.writePoint(t.P)
		w.str(")")
	case geom.LineString:
		w.str("LINESTRING ")
		w.writePoints(t)
	case geom.Polygon:
		w.str("POLYGON ")
		w.writeRings(t)
	case geom.MultiPolygon:
		w.str("MULTIPOLYGON (")
		for i, p := range t {
			if i > 0 {
				w.str(", ")
			}
			w.writeRings(p)
		}
		w.str(")")
	case geom.Collection:
		w.str("GEOMETRYCOLLECTION (")
		for i, m := range t {
			if i > 0 {
				w.str(", ")
			}
			w.writeGeometry(m)
		}
		w.str(")")
	default:
		w.str("POINT (0 0)")
	}
}

func (w *Writer) writePoint(p geom.Point) {
	w.num(p.X)
	w.str(" ")
	w.num(p.Y)
}

func (w *Writer) writePoints(pts []geom.Point) {
	w.str("(")
	for i, p := range pts {
		if i > 0 {
			w.str(", ")
		}
		w.writePoint(p)
	}
	w.str(")")
}

func (w *Writer) writeRings(p geom.Polygon) {
	w.str("(")
	for i, r := range p {
		if i > 0 {
			w.str(", ")
		}
		w.writePoints(r.Canonical())
	}
	w.str(")")
}

// Flush flushes buffered output.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}
