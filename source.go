package atgis

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"
)

// Format identifies the raw input format.
type Format uint8

// Supported input formats.
const (
	AutoDetect Format = iota
	GeoJSON
	WKT
	OSMXML
)

func (f Format) String() string {
	switch f {
	case GeoJSON:
		return "geojson"
	case WKT:
		return "wkt"
	case OSMXML:
		return "osmxml"
	default:
		return "auto"
	}
}

// Source is an open raw spatial dataset: a byte view of the input plus
// its format and lifecycle. Queries execute directly against the bytes
// with no loading or indexing phase, so a Source open is O(1) — the
// work happens per query.
//
// Implementations: OpenMapped returns a memory-mapped file view (cold
// start and resident memory independent of file size), FromBytes wraps
// an in-memory buffer, and ReaderSource buffers piped input. A Source
// is safe for any number of concurrent queries; Close must only be
// called once no query is in flight.
//
// # mmap vs reader-backed sources
//
// The two ways of opening a file trade off differently and the
// difference matters once a source is held open for repeated queries
// (a PreparedQuery registry, the atgis-serve source table):
//
//   - OpenMapped maps the file into the address space: opening is O(1)
//     regardless of size, the kernel pages bytes in on first touch and
//     can evict them under memory pressure, the page cache is shared
//     with every other process reading the file, and the mapping is
//     advised MADV_SEQUENTIAL on Linux so read-ahead matches the
//     scan-heavy access pattern of a query pass.
//   - ReaderSource copies the entire stream into one Go heap
//     allocation before the first query can run: opening is O(bytes),
//     the copy is unevictable (it counts fully against resident memory
//     and GC scanning roots), nothing is shared with other processes,
//     and no madvise-style hinting applies — the kernel never sees the
//     access pattern because the pages are anonymous.
//
// ReaderSource is therefore the right tool only for input that cannot
// be mapped (pipes, sockets, stdin) and for one-shot use. Long-lived
// registries should reject it — CheckReusable returns the typed
// ErrBufferedSource for reader-backed sources so callers can steer
// users to OpenMapped.
type Source interface {
	// Bytes returns the raw input. Callers must not modify or retain it
	// past Close.
	Bytes() []byte
	// DataFormat reports the detected or declared input format.
	DataFormat() Format
	// Close releases the underlying view (unmaps files, frees buffers).
	Close() error
}

// Dataset is a raw spatial input held in memory: the Source FromBytes
// returns.
type Dataset struct {
	Data   []byte
	Format Format
}

// Bytes implements Source.
func (d *Dataset) Bytes() []byte { return d.Data }

// DataFormat implements Source.
func (d *Dataset) DataFormat() Format { return d.Format }

// Close implements Source; in-memory datasets hold no resources.
func (d *Dataset) Close() error { return nil }

// FromBytes wraps an in-memory dataset as a Source.
func FromBytes(data []byte, format Format) (*Dataset, error) {
	if format == AutoDetect {
		format = DetectFormat(data)
	}
	if format == AutoDetect {
		return nil, errUnknownFormat(data)
	}
	return &Dataset{Data: data, Format: format}, nil
}

// ReaderSource buffers r fully in memory and wraps it as a Source, for
// piped or otherwise unseekable input that cannot be memory-mapped.
// format may be AutoDetect.
//
// The buffer lives on the Go heap: unlike OpenMapped's page-cache-backed
// view it is unevictable, unshared and receives no kernel read-ahead
// hinting (see the Source doc for the full trade-off). Use it for
// one-shot queries over pipes; CheckReusable reports ErrBufferedSource
// for sources opened this way, and registries meant for repeated
// prepared-query reuse should refuse them.
func ReaderSource(r io.Reader, format Format) (Source, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	ds, err := FromBytes(data, format)
	if err != nil {
		return nil, err
	}
	return &bufferedSource{Dataset: *ds}, nil
}

// bufferedSource marks a Source whose bytes were copied from a stream
// onto the Go heap (ReaderSource), distinguishing it from deliberate
// in-memory datasets (FromBytes) and kernel-managed mappings
// (OpenMapped) so CheckReusable can identify it.
type bufferedSource struct {
	Dataset
}

// ErrBufferedSource is the sentinel (matched with errors.Is) returned
// by CheckReusable for reader-backed sources: their heap copy is
// unevictable and unhinted, so holding one open for repeated
// prepared-query reuse wastes memory that OpenMapped would leave to the
// page cache.
var ErrBufferedSource = errors.New("atgis: reader-backed source is heap-buffered")

// CheckReusable reports whether src suits long-lived registration for
// repeated prepared-query reuse. It returns an error matching
// ErrBufferedSource when src was opened with ReaderSource — callers
// registering sources (for example the atgis-serve source table) should
// surface it and require OpenMapped instead. Mapped and FromBytes
// sources pass.
func CheckReusable(src Source) error {
	if _, ok := src.(*bufferedSource); ok {
		return fmt.Errorf("%w; reopen the file with OpenMapped for repeated query reuse "+
			"(mapped pages are evictable, shared and sequential-read hinted)", ErrBufferedSource)
	}
	return nil
}

// MappedSource is a memory-mapped file view: the kernel pages input in
// on demand, so opening is O(1) and resident memory tracks the query's
// working set rather than the file size. Returned by OpenMapped.
type MappedSource struct {
	data   []byte
	format Format
	path   string
	unmap  func() error
	closed atomic.Bool

	// sc holds the per-mapping sidecar-index state (lazy-loaded index,
	// rejection reasons, hit/miss counters). It is only touched when a
	// sidecar-enabled Engine runs passes over this source.
	sc sidecarState
}

// OpenMapped maps the file at path read-only and detects its format
// when format is AutoDetect. The mapping is shared by all queries; call
// Close when no query is in flight to release it.
func OpenMapped(path string, format Format) (*MappedSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, unmap, err := mmapFile(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("atgis: mmap %s: %w", path, err)
	}
	if format == AutoDetect {
		format = DetectFormat(data)
	}
	if format == AutoDetect {
		err := errUnknownFormat(data)
		unmap()
		return nil, err
	}
	return &MappedSource{data: data, format: format, path: path, unmap: unmap}, nil
}

// Bytes implements Source.
func (s *MappedSource) Bytes() []byte { return s.data }

// DataFormat implements Source.
func (s *MappedSource) DataFormat() Format { return s.format }

// Path returns the mapped file's path.
func (s *MappedSource) Path() string { return s.path }

// Close unmaps the file. Closing is idempotent; queries must not be in
// flight (their byte view disappears with the mapping).
func (s *MappedSource) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.data = nil
	return s.unmap()
}

// wktKeywords are the geometry tags recognised at the start of a bare
// WKT line (no numeric id column).
var wktKeywords = [][]byte{
	[]byte("POINT"),
	[]byte("LINESTRING"),
	[]byte("POLYGON"),
	[]byte("MULTIPOINT"),
	[]byte("MULTILINESTRING"),
	[]byte("MULTIPOLYGON"),
	[]byte("GEOMETRYCOLLECTION"),
}

// hasWKTKeyword reports whether b starts with a WKT geometry keyword
// followed by a non-letter (so "POINTER..." does not match).
func hasWKTKeyword(b []byte) bool {
	for _, kw := range wktKeywords {
		if !bytes.HasPrefix(b, kw) {
			continue
		}
		if len(b) == len(kw) {
			return true
		}
		c := b[len(kw)]
		if !(c >= 'A' && c <= 'Z') && !(c >= 'a' && c <= 'z') {
			return true
		}
	}
	return false
}

// DetectFormat inspects the head of data and classifies it as GeoJSON,
// WKT or OSM XML, returning AutoDetect when no format matches.
func DetectFormat(data []byte) Format {
	head := data
	if len(head) > 512 {
		head = head[:512]
	}
	trimmed := bytes.TrimLeft(head, " \t\r\n")
	switch {
	case bytes.HasPrefix(trimmed, []byte("<?xml")), bytes.HasPrefix(trimmed, []byte("<osm")):
		return OSMXML
	case bytes.HasPrefix(trimmed, []byte("{")), bytes.HasPrefix(trimmed, []byte("[")):
		return GeoJSON
	case len(trimmed) > 0 && (trimmed[0] >= '0' && trimmed[0] <= '9' || trimmed[0] == '-'):
		return WKT
	case hasWKTKeyword(trimmed):
		return WKT
	default:
		return AutoDetect
	}
}

// errUnknownFormat builds the detection-failure error, naming the
// supported formats and what each looks like.
func errUnknownFormat(data []byte) error {
	head := data
	if len(head) > 24 {
		head = head[:24]
	}
	return fmt.Errorf("atgis: cannot detect input format from %.24q; supported formats: "+
		"GeoJSON (document starting with '{' or '['), "+
		"WKT (one feature per line, \"<id><TAB><GEOMETRY>\" or a bare "+
		"POINT/LINESTRING/POLYGON/MULTIPOLYGON/GEOMETRYCOLLECTION geometry), "+
		"OSM XML (starting with '<?xml' or '<osm')", head)
}
