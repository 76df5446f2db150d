// Package sidecar persists what a first pass over a raw source learns,
// so repeat passes become nearly free. The index lives in a compact
// binary file next to the source (`<path>.atgx`) and records one tape
// of features in consume order: each feature's start offset, its id and
// its bounding box. Warm queries classify that tape against their
// window, so they skip feature-boundary detection and prune features
// and whole byte ranges before any parsing happens; joins rebuild their
// partition sets from it without a pass over the bytes.
//
// A sidecar is advisory, never authoritative: it is validated against
// the source by size, mtime and a full content hash, and is rebuilt —
// never trusted — on any mismatch or decode error. Decoding arbitrary
// bytes must be total: corrupt, truncated or bit-flipped files yield a
// typed error (ErrCorrupt) and the caller falls back to a cold pass.
// Writes go through a temp file + rename so a crashed or injected
// failure never leaves a partial `.atgx` visible.
package sidecar

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"atgis/internal/faultinject"
	"atgis/internal/geom"
)

// Typed rejection reasons. Callers branch on these with errors.Is; both
// mean "run cold and rebuild", they differ only in what the operator is
// told.
var (
	// ErrCorrupt marks a sidecar file that failed structural decoding:
	// bad magic, impossible lengths, a checksum mismatch, or offsets
	// that cannot describe the source. The file is untrustworthy.
	ErrCorrupt = errors.New("sidecar: corrupt index file")

	// ErrStale marks a structurally valid sidecar that no longer
	// matches its source (size, mtime or content hash changed).
	ErrStale = errors.New("sidecar: stale (source changed)")
)

const (
	magic      = "ATGX"
	version    = 2
	headerSize = 40
	// entrySize is one tape entry on disk: offset, id and four box
	// coordinates, eight bytes each.
	entrySize = 48
	// maxFeatures bounds decode-time allocations so a corrupt length
	// field cannot balloon memory before the checksum is even verified.
	maxFeatures = 1 << 31
)

// Format values mirror the root package's Format enum for the formats
// a sidecar can describe.
const (
	FormatGeoJSON = 1
	FormatWKT     = 2
	FormatOSMXML  = 3
)

// Index is a decoded sidecar: the structural skeleton of one source.
//
// Offs/IDs/Boxes form the feature tape in consume order — the exact
// order a cold pass hands features to the merge fold (document order
// for GeoJSON and WKT; ways-then-relations for OSM). Warm passes
// depend on that ordering to reproduce cold output byte for byte.
// A feature whose geometry was null records geom.EmptyBox(); it is
// pruned by any window and skipped by partition rebuilds, exactly
// matching what a cold pass does with a nil geometry.
type Index struct {
	Format   uint8  // FormatGeoJSON / FormatWKT / FormatOSMXML
	SrcLen   int64  // length of the source bytes when recorded
	SrcMtime int64  // source mtime (unix nanoseconds) when recorded
	SrcHash  uint64 // Hash of the full source bytes when recorded

	Offs  []int64    // feature start offsets, consume order
	IDs   []int64    // feature IDs, parallel to Offs
	Boxes []geom.Box // feature bounding boxes, parallel to Offs
}

// N reports the number of features on the tape.
func (ix *Index) N() int { return len(ix.Offs) }

// PathFor returns the sidecar path for a source path.
func PathFor(src string) string { return src + ".atgx" }

// Hash is a fast word-at-a-time FNV-style digest over the full source
// bytes. It is the authoritative staleness check: size and mtime are
// cheap pre-filters, content equality is what actually makes a sidecar
// trustworthy. Throughput is memory-bound (~GB/s), and the engine
// caches the digest per mapping, so it is paid once per open source.
func Hash(data []byte) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037) ^ uint64(len(data))*prime
	for len(data) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(data)) * prime
		data = data[8:]
	}
	for _, b := range data {
		h = (h ^ uint64(b)) * prime
	}
	return h
}

// Validate checks a decoded index against the live source. The hash is
// requested through a callback so callers can cache it per mapping.
func (ix *Index) Validate(srcLen, srcMtime int64, srcHash func() uint64) error {
	if ix.SrcLen != srcLen {
		return fmt.Errorf("%w: size %d, source is %d bytes", ErrStale, ix.SrcLen, srcLen)
	}
	if ix.SrcMtime != srcMtime {
		return fmt.Errorf("%w: mtime changed", ErrStale)
	}
	if h := srcHash(); ix.SrcHash != h {
		return fmt.Errorf("%w: content hash %#x, source is %#x", ErrStale, ix.SrcHash, h)
	}
	return nil
}

// Builder accumulates the feature tape during a cold pass. Add must be
// called from the merge fold (single-threaded, consume order).
type Builder struct {
	format uint8
	offs   []int64
	ids    []int64
	boxes  []geom.Box
}

// NewBuilder starts a tape for one source.
func NewBuilder(format uint8) *Builder { return &Builder{format: format} }

// Add appends one feature in consume order. Pass geom.EmptyBox() for
// features with no geometry.
func (b *Builder) Add(off, id int64, box geom.Box) {
	b.offs = append(b.offs, off)
	b.ids = append(b.ids, id)
	b.boxes = append(b.boxes, box)
}

// Build freezes the tape into an Index. It fails (rather than producing
// a sidecar that would corrupt warm passes) if the tape violates the
// format's ordering contract.
func (b *Builder) Build(srcLen, srcMtime int64, srcHash uint64) (*Index, error) {
	if b.format != FormatGeoJSON && b.format != FormatWKT && b.format != FormatOSMXML {
		return nil, fmt.Errorf("sidecar: cannot build for format %d", b.format)
	}
	if err := checkOffsets(b.format, b.offs, srcLen); err != nil {
		return nil, fmt.Errorf("sidecar: recorded %v", err)
	}
	return &Index{
		Format:   b.format,
		SrcLen:   srcLen,
		SrcMtime: srcMtime,
		SrcHash:  srcHash,
		Offs:     b.offs,
		IDs:      b.ids,
		Boxes:    b.boxes,
	}, nil
}

// checkOffsets enforces the tape invariants warm passes rely on: every
// offset inside the source and, for the line and document formats,
// strictly increasing. OSM XML tapes interleave ways and relations, so
// their offsets need not be monotone.
func checkOffsets(format uint8, offs []int64, srcLen int64) error {
	for i, off := range offs {
		if off < 0 || off >= srcLen {
			return fmt.Errorf("feature %d offset %d outside source [0,%d)", i, off, srcLen)
		}
		if i > 0 && format != FormatOSMXML && off <= offs[i-1] {
			return fmt.Errorf("feature offsets not increasing at %d", i)
		}
	}
	return nil
}

// Prune marks in keep (len N) every feature whose bounding box
// intersects win: one compare per feature over the contiguous tape. No
// query calls it — warm passes classify the tape as they walk it — but
// the benchmark's sidecar probe times it and tests use it to find
// pruned features, so it stays budgeted as a hot path (no allocations).
//
//atgis:hotpath
func (ix *Index) Prune(win geom.Box, keep []bool) {
	for i := range ix.Boxes {
		keep[i] = ix.Boxes[i].Intersects(win)
	}
}

// encoded layout, all little-endian:
//
//	[0:4)   magic "ATGX"
//	[4:6)   version u16 (2; version 1 also carried a cell index)
//	[6)     format u8
//	[7)     flags u8 (reserved, 0)
//	[8:16)  srcLen u64
//	[16:24) srcMtime i64
//	[24:32) srcHash u64
//	[32:40) n u64
//	offs    n × i64
//	ids     n × i64
//	boxes   n × 4 × f64
//	checksum  u64 = Hash(all preceding bytes)
//
// The trailing self-checksum guards the index against its own
// corruption independently of the source-match fields, so a bit flip
// anywhere is a typed ErrCorrupt, never a bogus offset handed to the
// parser.

// Encode serializes an index.
func (ix *Index) Encode() []byte {
	n := len(ix.Offs)
	buf := make([]byte, 0, headerSize+entrySize*n+8)
	le := binary.LittleEndian
	buf = append(buf, magic...)
	buf = le.AppendUint16(buf, version)
	buf = append(buf, ix.Format, 0)
	buf = le.AppendUint64(buf, uint64(ix.SrcLen))
	buf = le.AppendUint64(buf, uint64(ix.SrcMtime))
	buf = le.AppendUint64(buf, ix.SrcHash)
	buf = le.AppendUint64(buf, uint64(n))
	for _, v := range ix.Offs {
		buf = le.AppendUint64(buf, uint64(v))
	}
	for _, v := range ix.IDs {
		buf = le.AppendUint64(buf, uint64(v))
	}
	for _, b := range ix.Boxes {
		buf = le.AppendUint64(buf, math.Float64bits(b.MinX))
		buf = le.AppendUint64(buf, math.Float64bits(b.MinY))
		buf = le.AppendUint64(buf, math.Float64bits(b.MaxX))
		buf = le.AppendUint64(buf, math.Float64bits(b.MaxY))
	}
	buf = le.AppendUint64(buf, Hash(buf))
	return buf
}

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Decode parses sidecar bytes. It is total over arbitrary input: any
// structural problem is ErrCorrupt, and a returned Index satisfies the
// invariants warm passes rely on (offsets in range and, for line/doc
// formats, strictly increasing). A file of another format version is
// ErrCorrupt too: the sidecar is a cache, so an old one is re-recorded
// rather than read.
func Decode(b []byte) (*Index, error) {
	if len(b) < headerSize+8 {
		return nil, corrupt("%d bytes is shorter than any index", len(b))
	}
	if string(b[0:4]) != magic {
		return nil, corrupt("bad magic")
	}
	le := binary.LittleEndian
	if v := le.Uint16(b[4:6]); v != version {
		return nil, corrupt("unsupported version %d", v)
	}
	format := b[6]
	if format != FormatGeoJSON && format != FormatWKT && format != FormatOSMXML {
		return nil, corrupt("unknown format %d", format)
	}
	if b[7] != 0 {
		return nil, corrupt("reserved flags %#x", b[7])
	}
	srcLen := int64(le.Uint64(b[8:16]))
	n := le.Uint64(b[32:40])
	if n > maxFeatures {
		return nil, corrupt("feature count %d", n)
	}
	if srcLen < 0 {
		return nil, corrupt("source length %d", srcLen)
	}
	if want := uint64(headerSize) + entrySize*n + 8; uint64(len(b)) != want {
		return nil, corrupt("%d bytes, a tape of %d features takes %d", len(b), n, want)
	}
	if got, want := Hash(b[:len(b)-8]), le.Uint64(b[len(b)-8:]); got != want {
		return nil, corrupt("checksum mismatch")
	}

	ix := &Index{
		Format:   format,
		SrcLen:   srcLen,
		SrcMtime: int64(le.Uint64(b[16:24])),
		SrcHash:  le.Uint64(b[24:32]),
		Offs:     make([]int64, n),
		IDs:      make([]int64, n),
		Boxes:    make([]geom.Box, n),
	}
	off := headerSize
	for i := range ix.Offs {
		ix.Offs[i] = int64(le.Uint64(b[off:]))
		off += 8
	}
	for i := range ix.IDs {
		ix.IDs[i] = int64(le.Uint64(b[off:]))
		off += 8
	}
	for i := range ix.Boxes {
		ix.Boxes[i] = geom.Box{
			MinX: math.Float64frombits(le.Uint64(b[off:])),
			MinY: math.Float64frombits(le.Uint64(b[off+8:])),
			MaxX: math.Float64frombits(le.Uint64(b[off+16:])),
			MaxY: math.Float64frombits(le.Uint64(b[off+24:])),
		}
		off += 32
	}

	// Semantic invariants: a checksum-valid file written by a buggy or
	// hostile encoder still must not hand the parser bogus offsets.
	if err := checkOffsets(format, ix.Offs, srcLen); err != nil {
		return nil, corrupt("%v", err)
	}
	return ix, nil
}

// Load reads and decodes the sidecar for a source path. Errors are
// ErrCorrupt-typed for undecodable content, or plain I/O errors (a
// missing file is simply os.IsNotExist). The fault-injection site
// "sidecar.load" covers the read so chaos tests can poison it.
func Load(srcPath string) (ix *Index, err error) {
	defer func() {
		if r := recover(); r != nil {
			ix, err = nil, fmt.Errorf("%w: load panic: %v", ErrCorrupt, r)
		}
	}()
	faultinject.Fire("sidecar.load", filepath.Base(srcPath), 0)
	f, err := os.Open(PathFor(srcPath))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return Decode(b)
}

// Write persists an index next to its source atomically: temp file in
// the same directory, fsync, rename. Any failure (including an
// injected panic at the "sidecar.write" site) is returned as an error
// with the temp file removed — a partial `.atgx` is never visible.
func Write(srcPath string, ix *Index) (err error) {
	dst := PathFor(srcPath)
	var tmp *os.File
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sidecar: write panic: %v", r)
		}
		if err != nil && tmp != nil {
			tmp.Close() // double close after a rename failure is harmless
			os.Remove(tmp.Name())
		}
	}()
	tmp, err = os.CreateTemp(filepath.Dir(dst), filepath.Base(dst)+".tmp*")
	if err != nil {
		return err
	}
	faultinject.Fire("sidecar.write", filepath.Base(srcPath), 0)
	if _, err = tmp.Write(ix.Encode()); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), dst); err != nil {
		return err
	}
	tmp = nil
	return nil
}
