// Package server implements the atgis-serve HTTP front-end: a network
// service exposing an atgis.Engine's prepared containment/aggregation
// queries and spatial joins over a table of registered (typically
// memory-mapped) Sources.
//
// The HTTP surface (documented in docs/API.md) is:
//
//	POST /v1/sources   register a dataset file (mmap'd on the server)
//	GET  /v1/sources   list registered sources
//	POST /v1/query     run a containment or aggregation query (NDJSON)
//	POST /v1/join      run a spatial self-join (NDJSON pair stream)
//	GET  /v1/stats     engine pool utilisation, admission queues,
//	                   per-source pass counters
//	GET  /healthz      liveness probe
//
// Query and join responses stream as NDJSON: matched features (or
// joined pairs) are written as they come off the engine's ordered
// merge, followed by one terminal summary record. Every request's
// context feeds the engine's cancellation path, so a client that
// disconnects mid-stream aborts the underlying pass between blocks
// instead of running it to completion.
//
// Admission control is the Engine's (internal/admission): when the
// engine was built with EngineConfig.MaxInFlight, a tenant (the
// X-Atgis-Tenant header) whose queue is full receives 429 with a
// Retry-After estimate while other tenants' requests keep being served
// round-robin.
package server

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"atgis"
	"atgis/internal/cluster"
)

// ErrDuplicateSource is matched (errors.Is) when registering a name
// already in the source table.
var ErrDuplicateSource = errors.New("server: source name already registered")

// Config assembles a Server.
type Config struct {
	// Engine executes the queries; required. Build it with admission
	// control (EngineConfig.MaxInFlight) to protect the pool from
	// flooding tenants.
	Engine *atgis.Engine
	// Options supplies per-query defaults (block size, PAT/FAT mode);
	// requests may override the block size per call.
	Options atgis.Options
	// AllowRegister enables POST /v1/sources (opening server-local
	// files named by the client). Disable when the server fronts
	// untrusted clients.
	AllowRegister bool
	// DefaultTimeout bounds each query/join request's wall clock when
	// the request carries no timeout_ms field (0 = unbounded). Expiry
	// before the stream starts returns 504; after, an in-band error
	// record with kind "timeout".
	DefaultTimeout time.Duration
	// MaxTimeout caps any client-requested timeout_ms (0 = uncapped).
	// Requests asking for more are silently clamped — the cap is an
	// operator bound, not a validation error.
	MaxTimeout time.Duration
	// Cluster switches the server into coordinator mode: the same /v1
	// surface, but queries and joins are scattered over the
	// coordinator's workers and merged (see internal/cluster). Engine is
	// unused (may be nil), no local sources are served, and source
	// registration is refused — register on the workers.
	Cluster *cluster.Coordinator
}

// Server is the HTTP front-end state: the engine plus the named-source
// registry.
type Server struct {
	eng            *atgis.Engine
	opt            atgis.Options
	allow          bool
	defaultTimeout time.Duration
	maxTimeout     time.Duration
	started        time.Time
	cl             *cluster.Coordinator // non-nil in coordinator mode

	// inflight tracks requests inside the handler so Close can wait for
	// them before unmapping sources out from under running passes;
	// inflightN mirrors it countably so shutdown can report how many
	// streams a bounded drain abandoned.
	inflight  sync.WaitGroup
	inflightN atomic.Int64

	mu      sync.RWMutex
	sources map[string]*sourceEntry
}

// sourceEntry is one registered dataset.
type sourceEntry struct {
	name   string
	path   string
	src    atgis.Source
	passes atomic.Int64 // completed query/join passes over this source
	// fault, when non-nil, records the source-level failure (a memory
	// fault reading the mmap — file truncated or deleted under it) that
	// marked this source unhealthy in /v1/stats and /healthz. A later
	// fully successful pass clears it: a complete pass touched every
	// block, so the mapping is readable again.
	fault atomic.Pointer[sourceFault]
}

// sourceFault is the recorded reason a source is unhealthy; it is
// serialised as-is into /v1/stats and /healthz.
type sourceFault struct {
	Error string    `json:"error"`
	At    time.Time `json:"at"`
}

// markFault flags the source unhealthy with the pass error that hit it.
func (e *sourceEntry) markFault(err error) {
	e.fault.Store(&sourceFault{Error: err.Error(), At: time.Now()})
}

// passDone records one completed pass. Only a full pass proves the whole
// mapping readable, so only it clears a recorded fault; a partial one (a
// shard's byte range, a join's cell band) is counted and no more.
func (e *sourceEntry) passDone(full bool) {
	e.passes.Add(1)
	if full {
		e.fault.Store(nil)
	}
}

// New builds a Server around cfg.Engine with an empty source table.
func New(cfg Config) *Server {
	return &Server{
		eng:            cfg.Engine,
		opt:            cfg.Options,
		allow:          cfg.AllowRegister,
		defaultTimeout: cfg.DefaultTimeout,
		maxTimeout:     cfg.MaxTimeout,
		started:        time.Now(),
		cl:             cfg.Cluster,
		sources:        make(map[string]*sourceEntry),
	}
}

// RegisterFile memory-maps the dataset at path and registers it under
// name. The format string is one of "", "auto", "geojson", "wkt",
// "osmxml".
func (s *Server) RegisterFile(name, path, format string) error {
	f, err := parseFormat(format)
	if err != nil {
		return err
	}
	src, err := atgis.OpenMapped(path, f)
	if err != nil {
		return err
	}
	if err := s.RegisterSource(name, src, path); err != nil {
		src.Close()
		return err
	}
	return nil
}

// RegisterSource registers an already-open Source under name. The
// registry exists for repeated prepared-query reuse, so reader-backed
// sources are refused with atgis.ErrBufferedSource (their heap buffer
// is unevictable and unhinted — see the atgis.Source documentation);
// reopen the file with OpenMapped instead. The Server takes ownership:
// Close releases every registered source.
func (s *Server) RegisterSource(name string, src atgis.Source, path string) error {
	if name == "" {
		return fmt.Errorf("server: source name must be non-empty")
	}
	if err := atgis.CheckReusable(src); err != nil {
		return fmt.Errorf("server: cannot register %q: %w", name, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sources[name]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateSource, name)
	}
	s.sources[name] = &sourceEntry{name: name, path: path, src: src}
	return nil
}

// source looks up a registered source.
func (s *Server) source(name string) (*sourceEntry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.sources[name]
	return e, ok
}

// Close waits for in-flight requests to finish, then releases all
// registered sources. Call after the HTTP server has stopped accepting
// connections (graceful Shutdown, or Close — forcibly cut connections
// cancel their request contexts, which winds the passes down and
// unblocks the wait; a source must never be unmapped under a running
// pass).
func (s *Server) Close() error {
	s.inflight.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for name, e := range s.sources {
		if err := e.src.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.sources, name)
	}
	return first
}

// Handler returns the routed HTTP handler for the full /v1 surface.
// Queries and joins are the same handlers in both modes (serve); the
// control-plane routes answer different questions on a worker and on a
// coordinator, so each mode has its own.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", serve(s, &queryEndpoint))
	mux.HandleFunc("POST /v1/join", serve(s, &joinEndpoint))
	if s.cl != nil {
		mux.HandleFunc("GET /healthz", s.handleClusterHealthz)
		mux.HandleFunc("GET /v1/stats", s.handleClusterStats)
		mux.HandleFunc("GET /v1/sources", s.handleClusterSources)
		mux.HandleFunc("POST /v1/sources", s.handleClusterRegister)
	} else {
		mux.HandleFunc("GET /healthz", s.handleHealthz)
		mux.HandleFunc("GET /v1/stats", s.handleStats)
		mux.HandleFunc("GET /v1/sources", s.handleListSources)
		mux.HandleFunc("POST /v1/sources", s.handleRegisterSource)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		s.inflightN.Add(1)
		defer func() {
			s.inflightN.Add(-1)
			s.inflight.Done()
		}()
		mux.ServeHTTP(w, r)
	})
}

// Inflight reports how many requests are currently inside handlers —
// what a bounded shutdown drain abandons when it gives up waiting.
func (s *Server) Inflight() int64 { return s.inflightN.Load() }

// parseFormat maps the wire format names onto atgis.Format.
func parseFormat(s string) (atgis.Format, error) {
	switch s {
	case "", "auto":
		return atgis.AutoDetect, nil
	case "geojson":
		return atgis.GeoJSON, nil
	case "wkt":
		return atgis.WKT, nil
	case "osmxml":
		return atgis.OSMXML, nil
	default:
		return atgis.AutoDetect, fmt.Errorf("unknown format %q (geojson | wkt | osmxml | auto)", s)
	}
}
