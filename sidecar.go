package atgis

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"atgis/internal/geom"
	"atgis/internal/query"
	"atgis/internal/sidecar"
)

// SidecarMode controls an Engine's use of persistent per-source
// structural indexes (see EngineConfig.Sidecar).
type SidecarMode uint8

// Sidecar modes.
const (
	// SidecarOff ignores sidecar files entirely (the default).
	SidecarOff SidecarMode = iota
	// SidecarRead uses a valid existing `<path>.atgx` to run warm
	// passes, but never writes one.
	SidecarRead
	// SidecarReadWrite additionally records the structural tape during
	// the first successful cold pass over a mapped source and persists
	// it atomically next to the file.
	SidecarReadWrite
)

func (m SidecarMode) String() string {
	switch m {
	case SidecarRead:
		return "read"
	case SidecarReadWrite:
		return "readwrite"
	default:
		return "off"
	}
}

// ParseSidecarMode parses the CLI/server flag form: off, read or
// readwrite.
func ParseSidecarMode(s string) (SidecarMode, error) {
	switch s {
	case "off", "":
		return SidecarOff, nil
	case "read":
		return SidecarRead, nil
	case "readwrite":
		return SidecarReadWrite, nil
	}
	return SidecarOff, fmt.Errorf("atgis: unknown sidecar mode %q (off, read, readwrite)", s)
}

// SidecarMode reports the engine's configured sidecar mode.
func (e *Engine) SidecarMode() SidecarMode { return e.sidecar }

// errWarmAbort marks a warm pass that discovered a mid-pass
// inconsistency between the sidecar tape and the bytes (tape.go: a
// covered feature's span that does not open or close a feature, a parsed
// run whose features are not the tape's). Load-time validation makes
// this near-impossible; when it happens the sidecar is rejected and
// aggregate passes silently rerun cold.
var errWarmAbort = errors.New("atgis: warm pass abandoned: sidecar inconsistent with source bytes")

// sidecarState is the per-mapping sidecar bookkeeping hanging off a
// MappedSource. All fields except the counters are guarded by mu.
type sidecarState struct {
	mu        sync.Mutex
	loaded    bool           // a load was attempted
	idx       *sidecar.Index // non-nil = validated and usable
	loadErr   error          // why the on-disk sidecar was rejected
	writeErr  error          // why the last persist attempt failed
	built     bool           // recorded and activated by this process
	recording bool           // a cold pass currently owns the recorder

	hashOnce sync.Once
	hash     uint64

	hits   atomic.Int64 // passes served warm from the index
	misses atomic.Int64 // eligible passes that had to run cold
}

// SidecarStats is the externally visible sidecar state of one mapped
// source, surfaced by atgis-serve's /v1/stats.
type SidecarStats struct {
	// State is "none" (no usable sidecar seen yet), "active" (loaded or
	// built and validated) or "rejected" (present but stale/corrupt).
	State string `json:"state"`
	// Features is the tape length of the active index.
	Features int `json:"features,omitempty"`
	// Hits counts passes served warm; Misses counts sidecar-eligible
	// passes that ran cold.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Built reports that this process recorded and activated the index.
	Built bool `json:"built,omitempty"`
	// LoadError / WriteError carry the last rejection / persist failure.
	LoadError  string `json:"load_error,omitempty"`
	WriteError string `json:"write_error,omitempty"`
}

// SidecarStats snapshots the source's sidecar state. All zero values
// until a sidecar-enabled engine runs a pass over the source.
func (s *MappedSource) SidecarStats() SidecarStats {
	s.sc.mu.Lock()
	defer s.sc.mu.Unlock()
	st := SidecarStats{
		State:  "none",
		Hits:   s.sc.hits.Load(),
		Misses: s.sc.misses.Load(),
		Built:  s.sc.built,
	}
	if s.sc.idx != nil {
		st.State = "active"
		st.Features = s.sc.idx.N()
	} else if s.sc.loadErr != nil {
		st.State = "rejected"
	}
	if s.sc.loadErr != nil {
		st.LoadError = s.sc.loadErr.Error()
	}
	if s.sc.writeErr != nil {
		st.WriteError = s.sc.writeErr.Error()
	}
	return st
}

// srcHash returns the content hash of the mapped bytes, computed once
// per mapping (the mapping is immutable short of external truncation,
// which is already a fault).
func (s *MappedSource) srcHash() uint64 {
	s.sc.hashOnce.Do(func() { s.sc.hash = sidecar.Hash(s.data) })
	return s.sc.hash
}

// sidecarFormat maps the source format to the sidecar format byte
// (0 = this format cannot carry a sidecar).
func sidecarFormat(f Format) uint8 {
	switch f {
	case GeoJSON:
		return sidecar.FormatGeoJSON
	case WKT:
		return sidecar.FormatWKT
	case OSMXML:
		return sidecar.FormatOSMXML
	}
	return 0
}

// sidecarIndex returns the validated index for this mapping, loading
// `<path>.atgx` on first use. A missing file is simply "none"; a
// stale, corrupt or unreadable one is recorded as rejected. Never
// trusts without validating: size and mtime from a fresh stat, then
// the full content hash of the mapped bytes.
func (s *MappedSource) sidecarIndex() *sidecar.Index {
	s.sc.mu.Lock()
	defer s.sc.mu.Unlock()
	if !s.sc.loaded {
		s.sc.loaded = true
		s.sc.idx, s.sc.loadErr = s.loadSidecar()
	}
	return s.sc.idx
}

func (s *MappedSource) loadSidecar() (*sidecar.Index, error) {
	ix, err := sidecar.Load(s.path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	if ix.Format != sidecarFormat(s.format) {
		return nil, fmt.Errorf("%w: sidecar format %d, source is %v", sidecar.ErrStale, ix.Format, s.format)
	}
	st, err := os.Stat(s.path)
	if err != nil {
		return nil, err
	}
	if err := ix.Validate(int64(len(s.data)), st.ModTime().UnixNano(), s.srcHash); err != nil {
		return nil, err
	}
	return ix, nil
}

// rejectSidecar drops the active index after a mid-pass inconsistency
// so every subsequent pass runs cold (and, under readwrite, rebuilds).
func (s *MappedSource) rejectSidecar(err error) {
	s.sc.mu.Lock()
	defer s.sc.mu.Unlock()
	s.sc.idx = nil
	s.sc.loadErr = err
}

// beginSidecarRecord claims the single recorder slot for a cold pass,
// returning nil when another pass holds it, an index is already
// active, or the format cannot carry a sidecar. The returned builder
// must only be fed from the pass's merge fold (single-threaded).
func (s *MappedSource) beginSidecarRecord() *sidecar.Builder {
	s.sc.mu.Lock()
	defer s.sc.mu.Unlock()
	f := sidecarFormat(s.format)
	if f == 0 || s.sc.recording || s.sc.idx != nil {
		return nil
	}
	s.sc.recording = true
	return sidecar.NewBuilder(f)
}

// abortSidecarRecord releases the recorder claim after a failed or
// cancelled pass without activating anything.
func (s *MappedSource) abortSidecarRecord() {
	s.sc.mu.Lock()
	s.sc.recording = false
	s.sc.mu.Unlock()
}

// finishSidecarRecord freezes the recorded tape after a successful
// cold pass, activates it for this mapping, and persists it
// atomically. Persist failures are recorded (WriteError) but never
// fail the pass that recorded the tape — the in-memory index is
// already valid.
func (s *MappedSource) finishSidecarRecord(b *sidecar.Builder) {
	st, statErr := os.Stat(s.path)
	var ix *sidecar.Index
	var buildErr error
	if statErr == nil {
		ix, buildErr = b.Build(int64(len(s.data)), st.ModTime().UnixNano(), s.srcHash())
	}
	s.sc.mu.Lock()
	defer s.sc.mu.Unlock()
	s.sc.recording = false
	switch {
	case statErr != nil:
		s.sc.writeErr = statErr
	case buildErr != nil:
		s.sc.writeErr = buildErr
	default:
		s.sc.idx = ix
		s.sc.loadErr = nil
		s.sc.built = true
		s.sc.writeErr = sidecar.Write(s.path, ix)
	}
}

// recorder is the sidecar prologue of a cold pass over a source that
// sidecarFor resolved to (ms, ix): it counts the miss and, on an engine
// that may write sidecars, claims the recorder. The pass feeds rec (nil
// when there is nothing to record) from its sink and reports its outcome
// to done, which persists the tape after a success and releases the claim
// after a failure.
func (e *Engine) recorder(ms *MappedSource, ix *sidecar.Index) (rec *sidecar.Builder, done func(error)) {
	if ms != nil && ix == nil {
		ms.sc.misses.Add(1)
		if e.sidecar == SidecarReadWrite {
			rec = ms.beginSidecarRecord()
		}
	}
	if rec == nil {
		return nil, func(error) {}
	}
	return rec, func(err error) {
		if err != nil {
			ms.abortSidecarRecord()
		} else {
			ms.finishSidecarRecord(rec)
		}
	}
}

// releaseOutside drops the mapping's pages outside r from the resident
// set. A shard that ran the recording pass has touched every other
// shard's bytes once and will plan from the tape from now on; without
// this the worker stays as resident as a single node.
func (s *MappedSource) releaseOutside(r ShardRange) {
	page := int64(os.Getpagesize())
	if lo := r.Start &^ (page - 1); lo > 0 {
		_ = madviseDontNeed(s.data[:lo]) // advisory: failure costs memory only
	}
	if hi := (r.End + page - 1) &^ (page - 1); hi < int64(len(s.data)) {
		_ = madviseDontNeed(s.data[hi:])
	}
}

// sidecarFor resolves the source's sidecar under the engine's mode:
// the mapped source (nil when sidecars don't apply at all) and its
// validated index (nil when absent or rejected — run cold).
func (e *Engine) sidecarFor(src Source) (*MappedSource, *sidecar.Index) {
	if e.sidecar == SidecarOff {
		return nil, nil
	}
	ms, ok := src.(*MappedSource)
	if !ok || ms.path == "" {
		return nil, nil
	}
	return ms, ms.sidecarIndex()
}

// pruneWindow reports whether the spec allows bbox pruning and against
// which window. Every predicate except disjoint requires the candidate
// MBR to intersect the reference MBR (see query.ApplyBox), so a
// feature whose recorded bbox misses the window can be skipped without
// parsing. Disjoint inverts that, and a nil reference matches
// everything: no pruning.
func pruneWindow(spec *query.Spec) (geom.Box, bool) {
	if spec == nil || spec.Ref == nil || spec.Pred == query.PredDisjoint {
		return geom.Box{}, false
	}
	return spec.RefBox, true
}
