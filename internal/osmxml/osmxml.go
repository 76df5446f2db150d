// Package osmxml processes OpenStreetMap XML, the most complex input
// format AT-GIS supports (paper §4.4(1)): point data (nodes) is separated
// from topology (ways and relations), so query execution makes two
// passes. Pass 1 parses every block into columns (Elements) and builds
// the temporary node table from them; pass 2 resolves each way and
// relation against the frozen table (Resolver), bounding box first, so a
// caller can drop an element before any geometry exists. Given a query
// window, pass 1 leaves a node whose 1° cell of integer brackets misses
// it unconverted, and pass 2 drops an element on those cells, converting
// its nodes only when it meets the window.
//
// Planet-style dumps keep one element per line, so blocks split at
// element boundaries — the partially-associative strategy the paper finds
// optimal for line-structured data. The paper's on-disk temporary table
// is substituted by in-memory sorted columns, built in bulk (NodeTable;
// docs/ARCHITECTURE.md's paper map records the substitution).
package osmxml

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"

	"atgis/internal/geom"
	"atgis/internal/numparse"
)

// Elements is what pass 1 extracts from one block, as columns: node ids
// and positions, and compact way and relation records over one arena of
// node refs and one of members. Nothing in it aliases the input.
type Elements struct {
	NodeIDs []int64
	NodePts []geom.Point
	// Ascending reports NodeIDs strictly ascending.
	Ascending bool

	Ways    []WayRec
	Refs    []int64 // node refs of every way, in order
	Rels    []RelRec
	Members []Member // members of every relation, in order

	tags []tagRec // ParseBlock's handler wants them; the engine reads none
}

// WayRec is one way; Elements.WayRefs are its refs.
type WayRec struct {
	ID, Off int64
	Lo      int // where its refs start in Refs; they end where the next way's start
	// InRelation marks a way some relation lists as a member: the relation
	// consumes it and it is not a feature of its own. Set by Link.
	InRelation bool
}

// RelRec is one relation; Elements.RelMembers are its members.
type RelRec struct {
	ID, Off int64
	Lo      int // where its members start in Members, as WayRec.Lo
}

// WayRefs returns the node refs of way i.
func (el *Elements) WayRefs(i int) []int64 {
	if i+1 < len(el.Ways) {
		return el.Refs[el.Ways[i].Lo:el.Ways[i+1].Lo]
	}
	return el.Refs[el.Ways[i].Lo:]
}

// RelMembers returns the members of relation i.
func (el *Elements) RelMembers(i int) []Member {
	if i+1 < len(el.Rels) {
		return el.Members[el.Rels[i].Lo:el.Rels[i+1].Lo]
	}
	return el.Members[el.Rels[i].Lo:]
}

// Member references a way or node from a relation.
type Member struct {
	Type string // "way" or "node"
	Ref  int64
	Role string // "outer" or "inner"
}

type tagRec struct {
	rel  bool // of Rels[elem], not Ways[elem]
	elem int
	k, v string
}

// ParseElements is pass 1 over the element lines in input[start:end).
// Blocks must begin at line starts; multi-line elements (way, relation)
// must be fully contained, which SplitElements guarantees.
//
// Under a window win, a node in canonical form whose 1° cell of integer
// brackets misses win may be left unconverted (canonicalNode, nextGate):
// its NodePts entry then holds the cell and where its attributes lie
// (bracketNode), and pass 2 converts it only for an element whose box
// meets win (Resolver). With win nil every node is converted.
func ParseElements(input []byte, start, end int64, win *geom.Box) (Elements, error) {
	var el Elements
	err := el.parse(input, start, end, false, win)
	return el, err
}

// room bounds how many elements of one kind the rest of a block can hold:
// one per line still unread, each at least as long as shortest. The
// columns with an entry per line (nodes, refs, members) are allocated
// once, on first use, with that capacity — exact for a block of nodes,
// which is most of a file — instead of growing by reallocation.
func room(lines int, bytes int64, shortest string) int {
	return min(lines, int(bytes/int64(len(shortest)))+1)
}

// linesPerElement is how many lines a way or a relation is assumed to
// span when its column is first allocated (lines left / linesPerElement
// records); the column grows as usual if the block's are shorter.
const linesPerElement = 12

var nl = []byte{'\n'}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' }

// elemName reports whether the markup after a '<' names the element name:
// the name must end the line or be followed by whitespace, '/' or '>'
// ("<nd" is not "<ndx"). It returns where the attributes start.
func elemName(rest []byte, name string) (int, bool) {
	n := len(name)
	if len(rest) < n || string(rest[:n]) != name {
		return 0, false
	}
	if len(rest) > n && !isSpace(rest[n]) && rest[n] != '/' && rest[n] != '>' {
		return 0, false
	}
	return n, true
}

// nextAttr reads the name="value" pair at or after line[i], left to
// right, so text inside a value is never taken for a name. Values may be
// quoted with either quote character. ok is false at the end of the tag
// and at anything that is not a well-formed pair; next is then where the
// scan stopped ('/' for a self-closing tag).
//
//atgis:hotpath
func nextAttr(line []byte, i int) (name, val []byte, next int, ok bool) {
	for i < len(line) && isSpace(line[i]) {
		i++
	}
	s := i
	for i < len(line) && line[i] != '=' && line[i] != '/' && line[i] != '>' && !isSpace(line[i]) {
		i++
	}
	if i == s {
		return nil, nil, i, false
	}
	name = line[s:i]
	for i < len(line) && isSpace(line[i]) {
		i++
	}
	if i >= len(line) || line[i] != '=' {
		return nil, nil, i, false
	}
	i++
	for i < len(line) && isSpace(line[i]) {
		i++
	}
	if i >= len(line) || (line[i] != '"' && line[i] != '\'') {
		return nil, nil, i, false
	}
	q := bytes.IndexByte(line[i+1:], line[i])
	if q < 0 {
		return nil, nil, i, false
	}
	return name, line[i+1 : i+1+q], i + q + 2, true
}

// attrs scans an element's attributes from rest[i] on, once, and returns
// the values of up to three wanted names — nil for an absent one, and the
// first of a name wins, as in XML it is the only one — and where the scan
// stopped: past the last wanted value or, when whole is set or a wanted
// name is missing, at the end of the tag ('/' for a self-closing one).
//
//atgis:hotpath
func attrs(rest []byte, i int, whole bool, want [3]string) (vals [3][]byte, end int) {
	missing := 0
	for _, w := range want {
		if w != "" {
			missing++
		}
	}
	for whole || missing > 0 {
		name, val, next, ok := nextAttr(rest, i)
		if !ok {
			return vals, next
		}
		i = next
		for k, w := range want {
			if vals[k] == nil && string(name) == w { // a name is never empty
				vals[k] = val
				missing--
				break
			}
		}
	}
	return vals, i
}

// parse appends the elements of input[start:end) to el's empty columns,
// scanning every element line once, left to right. A way or relation
// still open where the next top-level element starts — where
// SplitElements may cut — is dropped, so no state crosses a cut and the
// blocks of any bytes parse to the same elements as the whole.
//
//atgis:hotpath
func (el *Elements) parse(input []byte, start, end int64, keepTags bool, win *geom.Box) (err error) {
	el.Ascending = true
	way, rel := -1, -1                            // the open way or relation, if any: never both
	gate := win                                   // the window the next node may stay bracketed under
	left := bytes.Count(input[start:end], nl) + 1 // lines from the current one on
	for pos := start; pos < end && err == nil; left-- {
		lineOff := pos
		line := input[pos:end]
		if nl := bytes.IndexByte(line, '\n'); nl >= 0 {
			line = line[:nl]
		}
		pos += int64(len(line)) + 1
		i := 0
		for i < len(line) && isSpace(line[i]) {
			i++
		}
		if len(line)-i < 3 || line[i] != '<' {
			continue
		}
		rest := line[i+1:]
		switch rest[0] {
		case 'n':
			if a, ok := elemName(rest, "node"); ok {
				way, rel = el.dropWay(way), el.dropRel(rel)
				at := lineOff + int64(len(line)-len(rest)+a)
				if err = el.node(rest, a, input[at:end], at, lineOff, left, gate); err == nil {
					gate = nextGate(el.NodePts[len(el.NodePts)-1], win)
				}
			} else if a, ok := elemName(rest, "nd"); ok && way >= 0 {
				if ref, ok := ndRef(rest, a); ok {
					if el.Refs == nil {
						el.Refs = make([]int64, 0, room(left, end-lineOff, `<nd ref="1"/>`))
					}
					el.Refs = append(el.Refs, ref)
				}
			}
		case 'w':
			if a, ok := elemName(rest, "way"); ok {
				v, tagEnd := attrs(rest, a, true, [3]string{"id"})
				id, ok := numparse.IntExact(v[0])
				if !ok {
					err = badElement("way", lineOff)
					break
				}
				el.dropWay(way)
				rel = el.dropRel(rel)
				way = len(el.Ways)
				if el.Ways == nil {
					el.Ways = make([]WayRec, 0, left/linesPerElement+1)
				}
				el.Ways = append(el.Ways, WayRec{ID: id, Off: lineOff, Lo: len(el.Refs)})
				if tagEnd < len(rest) && rest[tagEnd] == '/' { // self-closing
					way = -1
				}
			}
		case 'r':
			if a, ok := elemName(rest, "relation"); ok {
				v, tagEnd := attrs(rest, a, true, [3]string{"id"})
				id, ok := numparse.IntExact(v[0])
				if !ok {
					err = badElement("relation", lineOff)
					break
				}
				way = el.dropWay(way)
				el.dropRel(rel)
				rel = len(el.Rels)
				if el.Rels == nil {
					el.Rels = make([]RelRec, 0, left/linesPerElement+1)
				}
				el.Rels = append(el.Rels, RelRec{ID: id, Off: lineOff, Lo: len(el.Members)})
				if tagEnd < len(rest) && rest[tagEnd] == '/' { // self-closing
					rel = -1
				}
			}
		case 'm':
			if a, ok := elemName(rest, "member"); ok && rel >= 0 {
				if el.Members == nil {
					el.Members = make([]Member, 0, room(left, end-lineOff, `<member ref="1"/>`))
				}
				el.member(rest, a)
			}
		case 't':
			if a, ok := elemName(rest, "tag"); ok && keepTags && (way >= 0 || rel >= 0) {
				el.tag(rest, a, way, rel)
			}
		case '/':
			if _, ok := elemName(rest[1:], "way"); ok {
				way = -1
			} else if _, ok := elemName(rest[1:], "relation"); ok {
				rel = -1
			}
		}
	}
	el.dropWay(way)
	el.dropRel(rel)
	return err
}

// node parses a <node> line whose attributes start at rest[i]: through
// canonicalNode from attrs, the same attributes up to the block's end at
// input offset at, and through the general scan, anyNode, when that
// declines.
//
//atgis:hotpath
func (el *Elements) node(rest []byte, i int, attrs []byte, at, lineOff int64, left int, win *geom.Box) error {
	id, p, ok := canonicalNode(attrs, at, win)
	if !ok {
		if id, p, ok = anyNode(rest, i); !ok {
			return badNode(rest, lineOff)
		}
	}
	if el.NodeIDs == nil {
		n := room(left, at-lineOff+int64(len(attrs)), `<node id="1" lat="1" lon="1"/>`)
		el.NodeIDs = make([]int64, 0, n)
		el.NodePts = make([]geom.Point, 0, n)
	}
	if n := len(el.NodeIDs); n > 0 && id <= el.NodeIDs[n-1] {
		el.Ascending = false
	}
	el.NodeIDs = append(el.NodeIDs, id)
	el.NodePts = append(el.NodePts, p)
	return nil
}

// anyNode reads a node's id, lat and lon wherever they stand among its
// attributes from rest[i] on, the first of each name winning.
//
//atgis:hotpath
func anyNode(rest []byte, i int) (id int64, p geom.Point, ok bool) {
	// Spelt out rather than through attrs: the generic scan made the whole
	// parser 45 % slower when every node took it.
	const idBit, latBit, lonBit = 1, 2, 4
	seen, good := 0, 0 // which attributes were met, which of them parsed
	for seen != idBit|latBit|lonBit {
		name, val, next, ok := nextAttr(rest, i)
		if !ok {
			break
		}
		i = next
		switch {
		case string(name) == "id" && seen&idBit == 0:
			seen |= idBit
			if id, ok = numparse.IntExact(val); ok {
				good |= idBit
			}
		case string(name) == "lat" && seen&latBit == 0:
			seen |= latBit
			if p.Y, ok = numparse.FloatExact(val); ok {
				good |= latBit
			}
		case string(name) == "lon" && seen&lonBit == 0:
			seen |= lonBit
			if p.X, ok = numparse.FloatExact(val); ok {
				good |= lonBit
			}
		}
	}
	return id, p, good == idBit|latBit|lonBit
}

// nextGate returns the window the node after p may stay bracketed under:
// win, but none after a node within a degree of win. Neighbours in a
// file lie close, so the next node's cell likely meets win too, and
// bracketing it would only add to its conversion: all of a city's nodes
// do. Which nodes stay bracketed then depends on where blocks are cut;
// what pass 2 makes of them does not.
//
//atgis:hotpath
func nextGate(p geom.Point, win *geom.Box) *geom.Box {
	if win != nil && p.X >= win.MinX-1 && p.X <= win.MaxX+1 && p.Y >= win.MinY-1 && p.Y <= win.MaxY+1 {
		return nil
	}
	return win
}

// The attributes of a node in canonical form, as planet dumps and
// Writer.WriteNode spell them: ` id="…" lat="…" lon="…"` first.
const idAttr, latAttr, lonAttr = ` id="`, `" lat="`, `" lon="`

// canonicalNode reads a node whose attributes b start in canonical form,
// finding the values nextAttr would, and declines (ok false) on any other
// shape or on a value that does not parse; anyNode then decides. b may
// run past the line: no value it accepts holds a line break. Under win,
// a node whose two values numparse.Bracket certifies and whose 1° cell
// of brackets misses win is not converted: it comes back as
// bracketNode(at, …), at being b's offset in the input. Those values are
// ones FloatExact takes too (bracketValue), so a malformed node fails
// pass 1 whatever the window.
//
//atgis:hotpath
func canonicalNode(b []byte, at int64, win *geom.Box) (id int64, p geom.Point, ok bool) {
	if len(b) < len(idAttr) || string(b[:len(idAttr)]) != idAttr {
		return 0, p, false
	}
	i := len(idAttr)
	id, q, ok := quotedInt(b[i:])
	if !ok {
		return 0, p, false
	}
	lat, latEnd, latLo, latB := attrValue(b, i+q, latAttr, win != nil)
	lon, lonEnd, lonLo, lonB := attrValue(b, latEnd, lonAttr, win != nil)
	if lonEnd < 0 {
		return 0, p, false
	}
	if latB && lonB && at <= maxBracketOff {
		if cell := (geom.Box{MinX: lonLo, MinY: latLo, MaxX: lonLo + 1, MaxY: latLo + 1}); !cell.Intersects(*win) {
			return id, bracketNode(at, lonLo, latLo), true
		}
	}
	if p.Y, ok = numparse.FloatExact(b[lat:latEnd]); !ok {
		return 0, p, false
	}
	p.X, ok = numparse.FloatExact(b[lon:lonEnd])
	return id, p, ok
}

// attrValue finds the value after the literal name at b[i] (`" lat="`):
// it lies in b[start:end], end at its closing quote, and end is -1 when
// b[i] is no such literal, i is -1 or the value has no closing quote.
// With bracket set, lo is the low end of the value's bracket, and
// bracketed reports that bracketValue certified the whole value.
//
//atgis:hotpath
func attrValue(b []byte, i int, name string, bracket bool) (start, end int, lo float64, bracketed bool) {
	if i < 0 || len(b)-i < len(name) || string(b[i:i+len(name)]) != name {
		return 0, -1, 0, false
	}
	start = i + len(name)
	if bracket {
		if lo, n, ok := bracketValue(b[start:]); ok {
			return start, start + n, lo, true
		}
	}
	q := bytes.IndexByte(b[start:], '"')
	if q < 0 {
		return 0, -1, 0, false
	}
	return start, start + q, 0, false
}

// maxBracketLen bounds the values bracketValue certifies: a nonzero
// decimal of at most 64 bytes is at least 1e-62, far from underflow.
const maxBracketLen = 64

// bracketValue brackets the number that starts b and ends at a closing
// quote: numparse.Bracket accepts it — so Prefix does, with the same
// byte count — the quote follows, it is short enough not to underflow
// and its integer part is not huge, so FloatExact accepts it and an int32
// holds lo.
//
//atgis:hotpath
func bracketValue(b []byte) (lo float64, n int, ok bool) {
	lo, n, ok = numparse.Bracket(b)
	if !ok || n >= len(b) || b[n] != '"' || n > maxBracketLen || lo < math.MinInt32 || lo > math.MaxInt32 {
		return 0, 0, false
	}
	return lo, n, true
}

// A bracketed node's NodePts entry: X is a NaN, which no converted
// coordinate is, carrying the input offset of the node's attributes; Y
// holds the low ends of its lon and lat brackets as two int32s.
const (
	bracketNaN    = 0x7FF8_0000_0000_0000
	maxBracketOff = 1<<51 - 1
)

// bracketNode is the entry of a node whose attributes lie at input offset
// at and whose position lies in [lonLo, lonLo+1] × [latLo, latLo+1].
//
//atgis:hotpath
func bracketNode(at int64, lonLo, latLo float64) geom.Point {
	return geom.Point{
		X: math.Float64frombits(bracketNaN | uint64(at)),
		Y: math.Float64frombits(uint64(uint32(int32(lonLo)))<<32 | uint64(uint32(int32(latLo)))),
	}
}

// nodeCell returns the 1° cell of a bracketNode entry.
//
//atgis:hotpath
func nodeCell(p geom.Point) (lo, hi geom.Point) {
	c := math.Float64bits(p.Y)
	lo = geom.Point{X: float64(int32(c >> 32)), Y: float64(int32(c))}
	return lo, geom.Point{X: lo.X + 1, Y: lo.Y + 1}
}

// exactNode converts the bracketNode entry p of input: pass 1 certified
// that its attributes are canonical and that its values parse.
func exactNode(input []byte, p geom.Point) geom.Point {
	at := int64(math.Float64bits(p.X) & maxBracketOff)
	_, p, _ = canonicalNode(input[at:], at, nil)
	return p
}

// ndRef reads a <nd> line's ref, whose attributes start at rest[i]:
// firstInt, with the canonical ` ref="…"` read as one literal.
//
//atgis:hotpath
func ndRef(rest []byte, i int) (int64, bool) {
	const refAttr = ` ref="`
	if len(rest)-i < len(refAttr) || string(rest[i:i+len(refAttr)]) != refAttr {
		return firstInt(rest, i, "ref")
	}
	ref, _, ok := quotedInt(rest[i+len(refAttr):])
	return ref, ok
}

// quotedInt reads the integer that starts b and ends at a closing quote,
// in one pass: what numparse.IntExact accepts of the bytes before b's
// first quote, and that quote's index.
//
//atgis:hotpath
func quotedInt(b []byte) (v int64, q int, ok bool) {
	start := 0
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		start = 1
	}
	for q = start; q < len(b) && b[q]-'0' <= 9; q++ {
		v = v*10 + int64(b[q]-'0')
	}
	if q == start || q >= len(b) || b[q] != '"' {
		return 0, 0, false
	}
	if q-start > 18 { // perhaps past int64: IntExact decides
		v, ok = numparse.IntExact(b[:q])
		return v, q, ok
	}
	if b[0] == '-' {
		v = -v
	}
	return v, q, true
}

// firstInt returns the first attribute called name, if it is an integer:
// attrs for the one-attribute <nd> line, every other line of a file.
//
//atgis:hotpath
func firstInt(rest []byte, i int, name string) (int64, bool) {
	for {
		n, val, next, ok := nextAttr(rest, i)
		if !ok {
			return 0, false
		}
		if string(n) == name {
			return numparse.IntExact(val)
		}
		i = next
	}
}

// member appends a <member> line's record to the open relation.
func (el *Elements) member(rest []byte, i int) {
	v, _ := attrs(rest, i, false, [3]string{"type", "ref", "role"})
	ref, _ := numparse.IntExact(v[1]) // 0 when malformed
	el.Members = append(el.Members, Member{Type: internAttr(v[0]), Ref: ref, Role: internAttr(v[2])})
}

// tag records a <tag> line of the open way or relation, for ParseBlock.
func (el *Elements) tag(rest []byte, i, way, rel int) {
	v, _ := attrs(rest, i, false, [3]string{"k", "v"})
	el.tags = append(el.tags, tagRec{rel: way < 0, elem: max(way, rel), k: string(v[0]), v: string(v[1])})
}

// The malformed-element errors, built out of line so that the parser
// itself allocates nothing per line; each ends its block and the pass.

//go:noinline
func badElement(name string, lineOff int64) error {
	return fmt.Errorf("osmxml: bad %s at offset %d", name, lineOff)
}

//go:noinline
func badNode(rest []byte, lineOff int64) error {
	return fmt.Errorf("osmxml: bad node at offset %d: %.60q", lineOff, "<"+string(bytes.TrimRight(rest, " \t\r")))
}

// dropWay forgets a way that never closed, as if its lines were absent.
func (el *Elements) dropWay(way int) int {
	if way >= 0 {
		el.Refs = el.Refs[:el.Ways[way].Lo]
		el.Ways = el.Ways[:way]
		el.dropTags(false, way)
	}
	return -1
}

func (el *Elements) dropRel(rel int) int {
	if rel >= 0 {
		el.Members = el.Members[:el.Rels[rel].Lo]
		el.Rels = el.Rels[:rel]
		el.dropTags(true, rel)
	}
	return -1
}

func (el *Elements) dropTags(rel bool, elem int) {
	kept := el.tags[:0]
	for _, t := range el.tags {
		if t.rel != rel || t.elem != elem {
			kept = append(kept, t)
		}
	}
	el.tags = kept
}

// internAttr maps the small closed vocabulary of member attributes to
// shared string constants, avoiding a per-member allocation.
//
//atgis:hotpath
func internAttr(b []byte) string {
	switch string(b) {
	case "":
		return ""
	case "way":
		return "way"
	case "node":
		return "node"
	case "relation":
		return "relation"
	case "outer":
		return "outer"
	case "inner":
		return "inner"
	}
	return string(b)
}

// Way is a parsed way element, as ParseBlock's Handler receives it.
type Way struct {
	ID   int64
	Refs []int64
	Tags map[string]string
	Off  int64
}

// Relation is a parsed relation element, as ParseBlock's Handler
// receives it.
type Relation struct {
	ID      int64
	Members []Member
	Tags    map[string]string
	Off     int64
}

// Handler receives parsed elements.
type Handler struct {
	OnNode     func(id int64, p geom.Point)
	OnWay      func(w *Way)
	OnRelation func(r *Relation)
}

// ParseBlock is ParseElements for a caller that wants one object per
// element, tags included: it parses the block into columns and hands h
// the block's nodes, then its ways, then its relations, each in input
// order — everything that precedes a malformed element when the block
// has one.
func ParseBlock(input []byte, start, end int64, h *Handler) error {
	var el Elements
	err := el.parse(input, start, end, true, nil)
	if h.OnNode != nil {
		for i, id := range el.NodeIDs {
			h.OnNode(id, el.NodePts[i])
		}
	}
	wayTags := make([]map[string]string, len(el.Ways))
	relTags := make([]map[string]string, len(el.Rels))
	for _, t := range el.tags {
		of := wayTags
		if t.rel {
			of = relTags
		}
		if of[t.elem] == nil {
			of[t.elem] = make(map[string]string)
		}
		of[t.elem][t.k] = t.v
	}
	if h.OnWay != nil {
		for i, w := range el.Ways {
			h.OnWay(&Way{ID: w.ID, Refs: slices.Clone(el.WayRefs(i)), Tags: wayTags[i], Off: w.Off})
		}
	}
	if h.OnRelation != nil {
		for i, r := range el.Rels {
			h.OnRelation(&Relation{ID: r.ID, Members: slices.Clone(el.RelMembers(i)), Tags: relTags[i], Off: r.Off})
		}
	}
	return err
}

// ElementKind classifies a top-level OSM element.
type ElementKind uint8

// Element kinds.
const (
	ElemOther ElementKind = iota
	ElemNode
	ElemWay
	ElemRelation
)

// lineKind classifies one line of planet-style OSM XML.
//
//atgis:hotpath
func lineKind(line []byte) ElementKind {
	i := 0
	for i < len(line) && isSpace(line[i]) {
		i++
	}
	if i >= len(line) || line[i] != '<' {
		return ElemOther
	}
	rest := line[i+1:]
	if _, ok := elemName(rest, "node"); ok {
		return ElemNode
	}
	if _, ok := elemName(rest, "way"); ok {
		return ElemWay
	}
	if _, ok := elemName(rest, "relation"); ok {
		return ElemRelation
	}
	return ElemOther
}

// SplitElements returns block cut offsets that fall on top-level element
// starts (<node, <way, <relation), so multi-line elements never straddle
// blocks.
func SplitElements(input []byte, blockSize int) []int64 {
	var cuts []int64
	SplitElementsStream(input, blockSize, func(cut int64) bool { cuts = append(cuts, cut); return true })
	return cuts
}

// SplitElementsStream yields element-boundary cut offsets in increasing
// order as they are found (the incremental splitting form of
// SplitElements). The scan stops early when yieldCut returns false.
func SplitElementsStream(input []byte, blockSize int, yieldCut func(int64) bool) {
	if blockSize < 1 {
		blockSize = 1
	}
	for target := blockSize; target < len(input); {
		// Advance to the next line start at or after target.
		i := target
		if input[i-1] != '\n' {
			nl := bytes.IndexByte(input[i:], '\n')
			if nl < 0 {
				break
			}
			i += nl + 1
		}
		// Advance further to a line opening a top-level element.
		for i < len(input) {
			nl := bytes.IndexByte(input[i:], '\n')
			if nl < 0 {
				nl = len(input) - i
			}
			if lineKind(input[i:i+nl]) != ElemOther {
				break
			}
			i += nl + 1
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

// Writer emits planet-style OSM XML.
type Writer struct {
	w   *bufio.Writer
	err error
}

// NewWriter starts a document on w.
func NewWriter(w io.Writer) *Writer {
	out := &Writer{w: bufio.NewWriterSize(w, 1<<16)}
	out.str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<osm version=\"0.6\" generator=\"atgis-synth\">\n")
	return out
}

func (w *Writer) str(s string) {
	if w.err == nil {
		_, w.err = w.w.WriteString(s)
	}
}

// WriteNode emits one node element.
func (w *Writer) WriteNode(id int64, p geom.Point) {
	w.str(" <node id=\"" + strconv.FormatInt(id, 10) +
		"\" lat=\"" + strconv.FormatFloat(p.Y, 'g', -1, 64) +
		"\" lon=\"" + strconv.FormatFloat(p.X, 'g', -1, 64) + "\"/>\n")
}

// WriteWay emits one way element with node refs and tags.
func (w *Writer) WriteWay(id int64, refs []int64, tags map[string]string) {
	w.str(" <way id=\"" + strconv.FormatInt(id, 10) + "\">\n")
	for _, r := range refs {
		w.str("  <nd ref=\"" + strconv.FormatInt(r, 10) + "\"/>\n")
	}
	w.writeTags(tags)
	w.str(" </way>\n")
}

// WriteRelation emits one relation element.
func (w *Writer) WriteRelation(id int64, members []Member, tags map[string]string) {
	w.str(" <relation id=\"" + strconv.FormatInt(id, 10) + "\">\n")
	for _, m := range members {
		w.str("  <member type=\"" + m.Type + "\" ref=\"" + strconv.FormatInt(m.Ref, 10) +
			"\" role=\"" + m.Role + "\"/>\n")
	}
	w.writeTags(tags)
	w.str(" </relation>\n")
}

// writeTags emits tags in sorted key order for deterministic output.
func (w *Writer) writeTags(tags map[string]string) {
	keys := make([]string, 0, len(tags))
	for k := range tags {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w.str("  <tag k=\"" + k + "\" v=\"" + tags[k] + "\"/>\n")
	}
}

// Close terminates the document and flushes.
func (w *Writer) Close() error {
	w.str("</osm>\n")
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}
