package server

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"atgis"
)

// maxRequestBody bounds request JSON (the bodies are tiny specs).
const maxRequestBody = 1 << 20

// errorBody is the JSON error envelope for non-streaming failures.
type errorBody struct {
	Error string `json:"error"`
	// Kind classifies the failure for programmatic handling; see
	// classify and the failure-modes table in docs/OPERATIONS.md.
	Kind string `json:"kind,omitempty"`
}

// errorRecord is the in-band NDJSON error line a stream that already
// committed its 200 terminates with when the pass fails mid-flight.
type errorRecord struct {
	Type  string `json:"type"` // "error"
	Kind  string `json:"kind"`
	Error string `json:"error"`
}

// statusError is a failure whose status is decided where it is found:
// validation (400), source lookup (404, 409), registration (403) and
// whatever a coordinator's workers do to it (502).
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return e.msg }

func failf(status int, format string, args ...any) error {
	return &statusError{status, fmt.Sprintf(format, args...)}
}

// statusKinds is the error kind each statusError status implies.
var statusKinds = map[int]string{
	http.StatusBadRequest:          "bad_request",
	http.StatusForbidden:           "forbidden",
	http.StatusNotFound:            "not_found",
	http.StatusConflict:            "conflict",
	http.StatusBadGateway:          "cluster",
	http.StatusInternalServerError: "internal",
}

// classify is the one error table, for both endpoints in both modes
// (mirrored by the failure-modes table in docs/OPERATIONS.md): the
// status and body text err gets while the stream has not started, and
// the kind it carries there and on an in-band error record after.
// Engine errors map by type — admission overload → 429, closed engine →
// 503, expired deadline → 504, a confined pass failure (source fault,
// panic) or anything else → 500.
func classify(err error) (status int, kind, msg string) {
	var se *statusError
	var oe *atgis.OverloadError
	var pp *atgis.PassPanicError
	switch {
	case errors.As(err, &se):
		return se.status, statusKinds[se.status], se.msg
	case errors.As(err, &oe):
		return http.StatusTooManyRequests, "overload",
			fmt.Sprintf("overloaded: %d queued for tenant %q", oe.Queued, oe.Tenant)
	case errors.Is(err, atgis.ErrEngineClosed):
		return http.StatusServiceUnavailable, "shutdown", "engine shutting down"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "timeout", "request deadline exceeded: " + err.Error()
	case errors.Is(err, atgis.ErrSourceFault):
		kind = "source_fault"
	case errors.As(err, &pp):
		kind = "panic"
	default:
		kind = "internal"
	}
	return http.StatusInternalServerError, kind, "query failed: " + err.Error()
}

// writeFailure answers a request whose stream has not started with err's
// row of the table; a 429 carries the admission gate's Retry-After
// estimate rounded up to whole seconds.
func writeFailure(w http.ResponseWriter, err error) {
	status, kind, msg := classify(err)
	var oe *atgis.OverloadError
	if errors.As(err, &oe) && oe.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(max(1, int(math.Ceil(oe.RetryAfter.Seconds())))))
	}
	writeJSON(w, status, errorBody{Error: msg, Kind: kind})
}

// writeJSON answers a non-streaming request with one JSON document.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// withDeadline resolves the request's wall-clock budget — timeout_ms
// when given (clamped to the server's MaxTimeout), else the server
// default — and derives the bounded context. The budget feeds the
// engine's cancellation path via context.WithTimeout, so an expired
// request stops dispatching blocks mid-pass like a disconnect does.
func (s *Server) withDeadline(ctx context.Context, timeoutMS int) (context.Context, context.CancelFunc) {
	d := s.defaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
		if s.maxTimeout > 0 && d > s.maxTimeout {
			d = s.maxTimeout
		}
	} else if s.maxTimeout > 0 && (d == 0 || d > s.maxTimeout) {
		d = s.maxTimeout
	}
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// decodeBody parses the request JSON into v with a size cap.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeFailure(w, failf(http.StatusBadRequest, "bad request body: %v", err))
		return false
	}
	return true
}

// healthzResponse is the GET /healthz payload. Status is "ok" when
// every registered source is healthy and "degraded" when any source
// has a recorded fault; the HTTP status stays 200 either way — this is
// a liveness probe, and restarting the process will not repair a
// truncated source file. Degraded sources are listed with the fault
// that marked them.
type healthzResponse struct {
	Status   string                 `json:"status"` // "ok" | "degraded"
	Degraded map[string]sourceFault `json:"degraded_sources,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthzResponse{Status: "ok"}
	s.mu.RLock()
	for name, e := range s.sources {
		if f := e.fault.Load(); f != nil {
			if resp.Degraded == nil {
				resp.Degraded = make(map[string]sourceFault)
			}
			resp.Degraded[name] = *f
			resp.Status = "degraded"
		}
	}
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, resp)
}

// sourceInfo describes one registered source on the wire.
type sourceInfo struct {
	Name   string `json:"name"`
	Path   string `json:"path,omitempty"`
	Format string `json:"format"`
	Bytes  int64  `json:"bytes"`
	Passes int64  `json:"passes"`
	// Healthy is false while the source carries a recorded fault (a
	// memory fault reading its mapping — file truncated or deleted
	// under the mmap). Fault then describes it; a later fully
	// successful pass restores health.
	Healthy bool         `json:"healthy"`
	Fault   *sourceFault `json:"fault,omitempty"`
	// Sidecar reports the source's persistent-index state (hits,
	// misses, staleness rejections); present only when the engine runs
	// with a sidecar mode other than off and the source is mapped.
	Sidecar *atgis.SidecarStats `json:"sidecar,omitempty"`
}

func (e *sourceEntry) info(sidecarMode atgis.SidecarMode) sourceInfo {
	f := e.fault.Load()
	si := sourceInfo{
		Name:    e.name,
		Path:    e.path,
		Format:  e.src.DataFormat().String(),
		Bytes:   int64(len(e.src.Bytes())),
		Passes:  e.passes.Load(),
		Healthy: f == nil,
		Fault:   f,
	}
	if sidecarMode != atgis.SidecarOff {
		if ms, ok := e.src.(*atgis.MappedSource); ok {
			st := ms.SidecarStats()
			si.Sidecar = &st
		}
	}
	return si
}

// statsResponse is the GET /v1/stats payload.
type statsResponse struct {
	UptimeSeconds float64               `json:"uptime_seconds"`
	Engine        atgis.EngineStats     `json:"engine"`
	Sources       map[string]sourceInfo `json:"sources"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Engine:        s.eng.Stats(),
		Sources:       make(map[string]sourceInfo),
	}
	s.mu.RLock()
	for name, e := range s.sources {
		resp.Sources[name] = e.info(s.eng.SidecarMode())
	}
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleListSources(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	infos := make([]sourceInfo, 0, len(s.sources))
	for _, e := range s.sources {
		infos = append(infos, e.info(s.eng.SidecarMode()))
	}
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{"sources": infos})
}

// registerRequest is the POST /v1/sources body. Path names a file on
// the server host; it is memory-mapped, never copied.
type registerRequest struct {
	Name   string `json:"name"`
	Path   string `json:"path"`
	Format string `json:"format,omitempty"`
}

func (s *Server) handleRegisterSource(w http.ResponseWriter, r *http.Request) {
	if !s.allow {
		writeFailure(w, failf(http.StatusForbidden, "source registration disabled (-allow-register)"))
		return
	}
	var req registerRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Name == "" || req.Path == "" {
		writeFailure(w, failf(http.StatusBadRequest, "name and path are required"))
		return
	}
	if err := s.RegisterFile(req.Name, req.Path, req.Format); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrDuplicateSource) {
			status = http.StatusConflict
		}
		writeFailure(w, failf(status, "register %q: %v", req.Name, err))
		return
	}
	e, _ := s.source(req.Name)
	writeJSON(w, http.StatusCreated, e.info(s.eng.SidecarMode()))
}

// Streaming flush policy: flushing per record costs one syscall-ish
// chunked write per line, which dominates very high-match streams.
// Records are batched instead — a flush happens once flushBatch records
// accumulate or flushInterval has elapsed since the last one, whichever
// comes first, and terminal records (summary, in-band error) always
// flush so short responses and stream tails are never left sitting in
// the server's buffer.
const (
	flushBatch    = 64
	flushInterval = 50 * time.Millisecond
)

// ndjsonWriter serialises stream records, flushing in batches so
// clients see results while the pass is still running without paying a
// flush per record. The 50 ms bound is honoured by a timer, so a
// sparse-match stream's record never waits for the *next* record to
// trigger its flush; the mutex serialises the timer callback against
// handler writes (net/http ResponseWriters are not concurrency-safe).
// Handlers must call stop before returning — a timer firing after the
// handler exits must not touch the ResponseWriter.
//
// When the client sent Accept-Encoding: gzip the records are
// gzip-compressed on the wire at gzip.BestSpeed: a feature stream
// shrinks ≈ 2.5× (level 6: ≈ 2.8×) at ≈ 2.4× level 6's compressor
// throughput, which keeps the compressor from setting the pace of a
// wide stream. The flush cadence is unchanged — each batch flush drains
// the compressor (gzip.Writer.Flush) before pushing the HTTP chunk, so
// streaming latency stays at the 64-record/50 ms contract. Gzip is a
// client-hop matter: a coordinator's shard RPCs ask their workers for
// identity, so a worker compresses nothing a coordinator would only
// inflate again.
type ndjsonWriter struct {
	w       http.ResponseWriter
	flusher http.Flusher
	// useGzip requests compression; gz is created when the stream
	// starts (a gzip.Writer emits header bytes even when unused, so a
	// never-started stream must never create one).
	useGzip bool
	gz      *gzip.Writer
	out     io.Writer
	// buf is the payload record encoding buffer, reused record after
	// record (writeRecord).
	buf []byte

	mu      sync.Mutex
	started bool
	stopped bool
	// ended closes the stream to further records — a write failed (the
	// client is gone) or a terminal record went out — so a stream carries
	// at most one terminal record whatever a failing pass's epilogue adds.
	ended bool
	// pending counts records written since the last flush; lastFlush
	// is when that flush happened; timer, when non-nil, is the armed
	// interval flush for the current batch.
	pending   int
	lastFlush time.Time
	timer     *time.Timer
}

// newNDJSONWriter builds the stream writer for one request, negotiating
// gzip from its Accept-Encoding header.
func newNDJSONWriter(w http.ResponseWriter, r *http.Request) *ndjsonWriter {
	n := &ndjsonWriter{w: w, useGzip: acceptsGzip(r)}
	n.flusher, _ = w.(http.Flusher)
	return n
}

// acceptsGzip reports whether the request allows a gzip response
// encoding (an explicit q=0 disables it). Content-coding tokens and
// parameter names are case-insensitive (RFC 9110).
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		enc, attr, _ := strings.Cut(part, ";")
		if !strings.EqualFold(strings.TrimSpace(enc), "gzip") {
			continue
		}
		name, val, _ := strings.Cut(strings.TrimSpace(attr), "=")
		if strings.EqualFold(strings.TrimSpace(name), "q") {
			if q, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil && q <= 0 {
				continue
			}
		}
		return true
	}
	return false
}

// startLocked commits the 200 + NDJSON header; no error status can be
// sent afterwards.
func (n *ndjsonWriter) startLocked() {
	if n.started {
		return
	}
	n.started = true
	n.lastFlush = time.Now()
	n.w.Header().Set("Content-Type", "application/x-ndjson")
	n.w.Header().Set("Vary", "Accept-Encoding")
	n.out = n.w
	if n.useGzip {
		n.w.Header().Set("Content-Encoding", "gzip")
		n.gz, _ = gzip.NewWriterLevel(n.w, gzip.BestSpeed) // a constant level cannot fail
		n.out = n.gz
	}
	n.w.WriteHeader(http.StatusOK)
}

// write emits one control record (shard head, summary, error) through
// encoding/json; false means the stream has ended. A record that cannot
// be marshalled (NaN/Inf aggregates from degenerate geometry) ends it
// with an in-band error record instead of being confused with a dead
// connection, which would silently truncate the stream.
func (n *ndjsonWriter) write(v any) bool {
	b, err := json.Marshal(v)
	if err != nil {
		return n.encodeFailed(err)
	}
	return n.writeRaw(b)
}

// writeRecord emits one payload record, encoded into the writer's reused
// buffer with its newline; false means the stream has ended. Failures
// end the stream as write's do. Like every record write it runs on the
// handler's goroutine.
func (n *ndjsonWriter) writeRecord(rec record) bool {
	b, err := rec.appendJSON(n.buf[:0])
	if err != nil {
		return n.encodeFailed(err)
	}
	n.buf = append(b, '\n')
	return n.writeLine(n.buf)
}

// encodeFailed ends the stream with the in-band error record of a record
// that could not be encoded.
func (n *ndjsonWriter) encodeFailed(err error) bool {
	n.writeFinal(errorRecord{Type: "error", Kind: "internal", Error: "encode record: " + err.Error()})
	return false
}

// writeFinal emits a terminal record (summary or in-band error),
// flushes whatever the batch still holds and ends the stream.
func (n *ndjsonWriter) writeFinal(v any) bool {
	ok := n.write(v)
	n.mu.Lock()
	defer n.mu.Unlock()
	n.flushLocked()
	n.ended = true
	return ok
}

// writeRaw sends one pre-marshalled NDJSON line; false means the stream
// has ended — the client is gone, or a terminal record went out.
func (n *ndjsonWriter) writeRaw(line []byte) bool {
	return n.writeLine(append(line, '\n'))
}

// writeLine is writeRaw for a line that carries its newline.
func (n *ndjsonWriter) writeLine(line []byte) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ended {
		return false
	}
	n.startLocked()
	if _, err := n.out.Write(line); err != nil {
		n.ended = true
		return false
	}
	n.pending++
	if n.pending >= flushBatch || time.Since(n.lastFlush) >= flushInterval {
		n.flushLocked()
	} else if n.timer == nil && !n.stopped {
		// Arm the interval flush for this batch: the first buffered
		// record waits at most flushInterval even if no further record
		// ever arrives.
		n.timer = time.AfterFunc(flushInterval-time.Since(n.lastFlush), n.timerFlush)
	}
	return true
}

// timerFlush is the armed interval flush.
func (n *ndjsonWriter) timerFlush() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.timer = nil
	if !n.stopped && n.pending > 0 {
		n.flushLocked()
	}
}

// flushLocked pushes buffered records to the client and resets the
// batch.
func (n *ndjsonWriter) flushLocked() {
	if n.stopped {
		return
	}
	if n.gz != nil {
		// Drain the compressor first so the buffered records are in the
		// HTTP chunk this flush pushes.
		n.gz.Flush()
	}
	if n.flusher != nil {
		n.flusher.Flush()
	}
	n.pending = 0
	n.lastFlush = time.Now()
	if n.timer != nil {
		n.timer.Stop()
		n.timer = nil
	}
}

// stop flushes any tail and disarms the interval timer; after it
// returns no code path touches the ResponseWriter again, making it
// safe for the handler to return. Deferred by serve.
func (n *ndjsonWriter) stop() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.pending > 0 {
		n.flushLocked()
	}
	if n.gz != nil {
		// Close writes the gzip trailer; without it clients reject the
		// stream as truncated.
		n.gz.Close()
		n.gz = nil
		if n.flusher != nil {
			n.flusher.Flush()
		}
	}
	n.stopped = true
	if n.timer != nil {
		n.timer.Stop()
		n.timer = nil
	}
}
