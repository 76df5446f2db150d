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
	"atgis/internal/cluster"
	"atgis/internal/geom"
	"atgis/internal/query"
)

// maxRequestBody bounds request JSON (the bodies are tiny specs).
const maxRequestBody = 1 << 20

// errorBody is the JSON error envelope for non-streaming failures.
type errorBody struct {
	Error string `json:"error"`
	// Kind classifies the failure for programmatic handling; see
	// errKind and the failure-modes table in docs/OPERATIONS.md.
	Kind string `json:"kind,omitempty"`
}

// errorRecord is the in-band NDJSON error line a stream that already
// committed its 200 terminates with when the pass fails mid-flight.
type errorRecord struct {
	Type  string `json:"type"` // "error"
	Kind  string `json:"kind"`
	Error string `json:"error"`
}

// errKind classifies an execution error for error records, error
// bodies and the docs/OPERATIONS.md failure-modes table.
func errKind(err error) string {
	var pp *atgis.PassPanicError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, atgis.ErrSourceFault):
		return "source_fault"
	case errors.As(err, &pp):
		return "panic"
	case errors.Is(err, atgis.ErrOverloaded):
		return "overload"
	case errors.Is(err, atgis.ErrEngineClosed):
		return "shutdown"
	default:
		return "internal"
	}
}

// execErrorRecord builds the in-band terminal error line for err.
func execErrorRecord(err error) errorRecord {
	return errorRecord{Type: "error", Kind: errKind(err), Error: err.Error()}
}

// statusKind is the error kind implied by a validation-path status.
func statusKind(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusForbidden:
		return "forbidden"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "conflict"
	case http.StatusTooManyRequests:
		return "overload"
	case http.StatusServiceUnavailable:
		return "shutdown"
	case http.StatusGatewayTimeout:
		return "timeout"
	default:
		return "internal"
	}
}

// writeError emits a JSON error with status code; 429s carry the
// Retry-After estimate rounded up to whole seconds.
func writeError(w http.ResponseWriter, status int, retryAfter time.Duration, format string, args ...any) {
	writeErrorKind(w, status, statusKind(status), retryAfter, format, args...)
}

func writeErrorKind(w http.ResponseWriter, status int, kind string, retryAfter time.Duration, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusTooManyRequests && retryAfter > 0 {
		secs := int(math.Ceil(retryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: fmt.Sprintf(format, args...), Kind: kind})
}

// writeExecError maps an engine execution error onto an HTTP status:
// admission overload → 429 + Retry-After, closed engine → 503, a
// request deadline that expired before the stream started → 504, a
// confined pass failure (panic, source fault) → 500 with the typed
// kind, anything else → 500. Cancellation of the request's own context
// means the client is gone; nothing useful can be written.
func writeExecError(w http.ResponseWriter, err error) {
	var oe *atgis.OverloadError
	switch {
	case errors.As(err, &oe):
		writeError(w, http.StatusTooManyRequests, oe.RetryAfter,
			"overloaded: %d queued for tenant %q", oe.Queued, oe.Tenant)
	case errors.Is(err, atgis.ErrEngineClosed):
		writeError(w, http.StatusServiceUnavailable, 0, "engine shutting down")
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, 0, "request deadline exceeded: %v", err)
	default:
		writeErrorKind(w, http.StatusInternalServerError, errKind(err), 0, "query failed: %v", err)
	}
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
		writeError(w, http.StatusBadRequest, 0, "bad request body: %v", err)
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
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
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
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleListSources(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	infos := make([]sourceInfo, 0, len(s.sources))
	for _, e := range s.sources {
		infos = append(infos, e.info(s.eng.SidecarMode()))
	}
	s.mu.RUnlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"sources": infos})
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
		writeError(w, http.StatusForbidden, 0, "source registration disabled (-allow-register)")
		return
	}
	var req registerRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Name == "" || req.Path == "" {
		writeError(w, http.StatusBadRequest, 0, "name and path are required")
		return
	}
	if err := s.RegisterFile(req.Name, req.Path, req.Format); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrDuplicateSource) {
			status = http.StatusConflict
		}
		writeError(w, status, 0, "register %q: %v", req.Name, err)
		return
	}
	e, _ := s.source(req.Name)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(e.info(s.eng.SidecarMode()))
}

// queryRequest is the POST /v1/query body.
type queryRequest struct {
	// Source names a registered source.
	Source string `json:"source"`
	// Kind is "containment" (streams matching features) or
	// "aggregation" (summary only).
	Kind string `json:"kind"`
	// Ref is the reference box [minx, miny, maxx, maxy].
	Ref []float64 `json:"ref"`
	// Predicate relates candidates to Ref: intersects (default),
	// within, contains, disjoint.
	Predicate string `json:"predicate,omitempty"`
	// Want selects aggregates: "area", "perimeter", "mbr".
	Want []string `json:"want,omitempty"`
	// Mode is "pat" (default) or "fat"; Filter "streaming" (default)
	// or "buffered"; Dist "haversine" (default), "spherical",
	// "andoyer".
	Mode   string `json:"mode,omitempty"`
	Filter string `json:"filter,omitempty"`
	Dist   string `json:"dist,omitempty"`
	// BlockSize overrides the engine's block size (bytes).
	BlockSize int `json:"block_size,omitempty"`
	// PropKeys lists GeoJSON property keys to extract per feature.
	PropKeys []string `json:"prop_keys,omitempty"`
	// Limit caps the number of streamed feature records (0 = all).
	// The pass still completes, so the summary covers the full input.
	Limit int `json:"limit,omitempty"`
	// TimeoutMS bounds the request's wall clock in milliseconds,
	// overriding the server's default timeout (and clamped to its
	// -max-timeout). 0 means use the server default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Shard, when set, restricts the pass to the raw byte range
	// [start, end) of the source — the cluster scatter unit. The worker
	// aligns both ends forward to feature boundaries deterministically
	// and prepends a shard handshake record to the response stream.
	// Coordinator-internal; plain clients omit it.
	Shard *shardSpec `json:"shard,omitempty"`
}

// shardSpec is the raw byte range of a scattered sub-query.
type shardSpec struct {
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

// compile validates the request into a query spec plus options.
func (q *queryRequest) compile(base atgis.Options) (*query.Spec, atgis.Options, error) {
	spec := &query.Spec{}
	switch q.Kind {
	case "containment":
		spec.Kind = query.Containment
	case "aggregation":
		spec.Kind = query.Aggregation
	default:
		return nil, base, fmt.Errorf("kind must be containment or aggregation, got %q", q.Kind)
	}
	if len(q.Ref) != 4 {
		return nil, base, fmt.Errorf("ref must be [minx, miny, maxx, maxy]")
	}
	spec.Ref = geom.Box{MinX: q.Ref[0], MinY: q.Ref[1], MaxX: q.Ref[2], MaxY: q.Ref[3]}.AsPolygon()
	switch q.Predicate {
	case "", "intersects":
		spec.Pred = query.PredIntersects
	case "within":
		spec.Pred = query.PredWithin
	case "contains":
		spec.Pred = query.PredContains
	case "disjoint":
		spec.Pred = query.PredDisjoint
	default:
		return nil, base, fmt.Errorf("unknown predicate %q", q.Predicate)
	}
	for _, wnt := range q.Want {
		switch wnt {
		case "area":
			spec.WantArea = true
		case "perimeter":
			spec.WantPerimeter = true
		case "mbr":
			spec.WantMBR = true
		default:
			return nil, base, fmt.Errorf("unknown aggregate %q (area | perimeter | mbr)", wnt)
		}
	}
	switch q.Filter {
	case "", "streaming":
	case "buffered":
		spec.Mode = query.Buffered
	default:
		return nil, base, fmt.Errorf("filter must be streaming or buffered, got %q", q.Filter)
	}
	switch q.Dist {
	case "", "haversine":
		spec.Dist = geom.Haversine
	case "spherical":
		spec.Dist = geom.SphericalProjection
	case "andoyer":
		spec.Dist = geom.Andoyer
	default:
		return nil, base, fmt.Errorf("unknown dist %q", q.Dist)
	}

	opt := base
	switch q.Mode {
	case "": // inherit the server's configured default mode
	case "pat":
		opt.Mode = atgis.PAT
	case "fat":
		opt.Mode = atgis.FAT
	default:
		return nil, base, fmt.Errorf("mode must be pat or fat, got %q", q.Mode)
	}
	if q.BlockSize > 0 {
		opt.BlockSize = q.BlockSize
	}
	if len(q.PropKeys) > 0 {
		opt.PropKeys = q.PropKeys
	}
	if q.Limit < 0 {
		return nil, base, fmt.Errorf("limit must be >= 0")
	}
	return spec, opt, nil
}

// featureRecord is one streamed match.
type featureRecord struct {
	Type       string            `json:"type"` // "feature"
	ID         int64             `json:"id"`
	Offset     int64             `json:"offset"`
	BBox       [4]float64        `json:"bbox"`
	Area       float64           `json:"area,omitempty"`
	Perimeter  float64           `json:"perimeter,omitempty"`
	Properties map[string]string `json:"properties,omitempty"`
}

// querySummary is the terminal record of a query stream.
type querySummary struct {
	Type         string      `json:"type"` // "summary"
	Matched      int64       `json:"matched"`
	Scanned      int64       `json:"scanned"`
	SumArea      float64     `json:"sum_area,omitempty"`
	SumPerimeter float64     `json:"sum_perimeter,omitempty"`
	MBR          *[4]float64 `json:"mbr,omitempty"`
	WallMS       float64     `json:"wall_ms"`
	MBPerS       float64     `json:"mb_per_s"`
	Blocks       int         `json:"blocks"`
	Workers      int         `json:"workers"`
	Repaired     int         `json:"repaired,omitempty"`
	Reprocessed  int         `json:"reprocessed,omitempty"`
	// ShardsFailed is set only by a coordinator whose scattered pass
	// degraded: that many shards exhausted their retries (each left an
	// in-band shard_fault record), so the summary undercounts by the
	// failed shards' share.
	ShardsFailed int `json:"shards_failed,omitempty"`
}

func summarize(res *atgis.Result) querySummary {
	sum := querySummary{
		Type:         "summary",
		Matched:      res.Res.Count,
		Scanned:      res.Res.Scanned,
		SumArea:      res.Res.SumArea,
		SumPerimeter: res.Res.SumPerimeter,
		WallMS:       float64(res.Stats.Total().Microseconds()) / 1e3,
		MBPerS:       res.Stats.ThroughputMBs(),
		Blocks:       res.Stats.Blocks,
		Workers:      res.Stats.Workers,
		Repaired:     res.Repaired,
		Reprocessed:  res.Reprocessed,
	}
	if !res.Res.MBR.IsEmpty() {
		sum.MBR = &[4]float64{res.Res.MBR.MinX, res.Res.MBR.MinY, res.Res.MBR.MaxX, res.Res.MBR.MaxY}
	}
	return sum
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
// gzip-compressed on the wire: NDJSON is repetitive (field names on
// every line), so large pair/feature streams shrink several-fold. The
// flush cadence is unchanged — each batch flush drains the compressor
// (gzip.Writer.Flush) before pushing the HTTP chunk, so streaming
// latency stays at the 64-record/50 ms contract.
type ndjsonWriter struct {
	w       http.ResponseWriter
	flusher http.Flusher
	// useGzip requests compression; gz is created when the stream
	// starts (a gzip.Writer emits header bytes even when unused, so a
	// never-started stream must never create one).
	useGzip bool
	gz      *gzip.Writer
	out     io.Writer

	mu      sync.Mutex
	started bool
	stopped bool
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
		n.gz = gzip.NewWriter(n.w)
		n.out = n.gz
	}
	n.w.WriteHeader(http.StatusOK)
}

// write emits one record; a false return means to stop streaming. A
// record that cannot be marshalled (NaN/Inf aggregates from degenerate
// geometry) is reported to the client as an in-band error record
// instead of being confused with a dead connection, which would
// silently truncate the stream.
func (n *ndjsonWriter) write(v any) bool {
	b, err := json.Marshal(v)
	if err != nil {
		eb, merr := json.Marshal(map[string]string{"type": "error", "error": "encode record: " + err.Error()})
		if merr == nil {
			n.writeRaw(eb)
			n.flush() // terminal in-band error: drain the batch
		}
		return false
	}
	return n.writeRaw(b)
}

// writeFinal emits a terminal record (summary or in-band error) and
// flushes whatever the batch still holds.
func (n *ndjsonWriter) writeFinal(v any) bool {
	ok := n.write(v)
	n.flush()
	return ok
}

// writeRaw sends one pre-marshalled NDJSON line; false means the
// client is gone.
func (n *ndjsonWriter) writeRaw(line []byte) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.startLocked()
	if _, err := n.out.Write(append(line, '\n')); err != nil {
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

// flush pushes buffered records to the client and resets the batch.
func (n *ndjsonWriter) flush() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.flushLocked()
}

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
// safe for the handler to return. Deferred by every streaming handler.
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

// newFeatureRecord builds the wire form of one streamed match. The box
// travels with the per-feature value (every wire query has a reference,
// so the evaluator computed it).
func newFeatureRecord(spec *query.Spec, opt atgis.Options, f *geom.Feature, v query.FeatureVal) featureRecord {
	rec := featureRecord{
		Type:   "feature",
		ID:     f.ID,
		Offset: f.Offset,
		BBox:   [4]float64{v.Box.MinX, v.Box.MinY, v.Box.MaxX, v.Box.MaxY},
	}
	if spec.WantArea {
		rec.Area = v.Area
	}
	if spec.WantPerimeter {
		rec.Perimeter = v.Perimeter
	}
	if len(opt.PropKeys) > 0 {
		rec.Properties = f.Properties
	}
	return rec
}

// handleQuery serves POST /v1/query, for plain clients and — with
// req.Shard set — as the worker side of a scattered query: the same pass
// restricted to the request's raw byte range, with the shard handshake
// record prepended so the coordinator can verify range continuity across
// workers before interleaving their records. A shard pass uses the
// worker's sidecar like any other (warm from the tape, or — on a
// readwrite worker's first miss — the full recording pass filtered to
// the range), so workers with and without a tape mix freely: alignment
// is read off the bytes either way.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	entry, ok := s.source(req.Source)
	if !ok {
		writeError(w, http.StatusNotFound, 0, "unknown source %q", req.Source)
		return
	}
	spec, opt, err := req.compile(s.opt)
	if err != nil {
		writeError(w, http.StatusBadRequest, 0, "%v", err)
		return
	}
	if req.TimeoutMS < 0 {
		writeError(w, http.StatusBadRequest, 0, "timeout_ms must be >= 0")
		return
	}
	var head *cluster.ShardHead
	var shard atgis.ShardRange
	if req.Shard != nil {
		// Align once: the head reports the aligned range and the pass takes
		// it as its shard (re-aligning an aligned range is two constant-time
		// look-ups, not two more boundary scans).
		shard, err = atgis.AlignShard(entry.src, atgis.ShardRange{Start: req.Shard.Start, End: req.Shard.End})
		if err != nil {
			// Unshardable format (OSM XML) or an out-of-order range.
			writeError(w, http.StatusBadRequest, 0, "shard: %v", err)
			return
		}
		head = &cluster.ShardHead{
			Type: "shard", Start: req.Shard.Start, End: req.Shard.End,
			AlignedStart: shard.Start, AlignedEnd: shard.End,
		}
	}
	pq, err := s.eng.Prepare(spec, opt)
	if err != nil {
		writeExecError(w, err)
		return
	}
	execute, stream := pq.Execute, pq.Stream
	if head != nil {
		execute = func(ctx context.Context, src atgis.Source) (*atgis.Result, error) {
			return pq.ExecuteShard(ctx, src, shard)
		}
		stream = func(ctx context.Context, src atgis.Source) *atgis.Results {
			return pq.StreamShard(ctx, src, shard)
		}
	}

	// The request context carries the tenant for admission and feeds
	// the engine's cancellation path: a dropped connection — or the
	// request's deadline expiring — cancels it, which stops the
	// splitter and skips queued blocks mid-pass.
	ctx := atgis.WithTenant(r.Context(), tenantOf(r))
	ctx, cancel := s.withDeadline(ctx, req.TimeoutMS)
	defer cancel()
	out := newNDJSONWriter(w, r)
	defer out.stop() // flush the gzip tail and disarm the interval timer

	if spec.Kind == query.Aggregation {
		res, err := execute(ctx, entry.src)
		if err != nil {
			if errors.Is(err, atgis.ErrSourceFault) {
				entry.markFault(err)
			}
			if r.Context().Err() != nil {
				return // client gone; nowhere to report
			}
			writeExecError(w, err)
			return
		}
		entry.passDone(head == nil)
		if head != nil {
			out.write(head)
		}
		out.writeFinal(summarize(res))
		return
	}

	// Containment: stream matches as the pipeline merges them.
	res := stream(ctx, entry.src)
	defer res.Close()
	if head != nil && !out.write(head) {
		return
	}
	streamed := 0
	for res.Next() {
		if req.Limit > 0 && streamed >= req.Limit {
			break // summary below still covers the full pass
		}
		if !out.write(newFeatureRecord(spec, opt, res.Feature(), res.Value())) {
			return // client gone; deferred Close aborts the pass
		}
		streamed++
	}
	sum, err := res.Summary()
	if err != nil {
		if errors.Is(err, atgis.ErrSourceFault) {
			entry.markFault(err)
		}
		if r.Context().Err() != nil {
			return
		}
		if !out.started {
			writeExecError(w, err)
			return
		}
		// The stream already committed a 200 — a shard's head always has —
		// so report in-band. A coordinator treats the error record as a
		// failed attempt and retries the shard elsewhere.
		out.writeFinal(execErrorRecord(err))
		return
	}
	entry.passDone(head == nil)
	out.writeFinal(summarize(sum))
}

// minJoinCell bounds how fine a partition grid a request may demand.
// The grid covers the world extent, so cells = (360/cell)·(180/cell):
// an unbounded value would let one request allocate a grid with
// billions of cells (the partition pass builds one sink per pipeline
// fragment) and take the process down.
const minJoinCell = 0.1 // ≈6.5M cells

// joinRequest is the POST /v1/join body.
type joinRequest struct {
	// Source names a registered source.
	Source string `json:"source"`
	// Cell is the partition cell size in degrees (default 1,
	// minimum 0.1).
	Cell float64 `json:"cell,omitempty"`
	// Mask splits the dataset into the two join sides: "parity"
	// (default; even ids join odd ids) or "both" (every feature on
	// both sides — a self-join with identical pairs suppressed).
	Mask string `json:"mask,omitempty"`
	// BlockSize overrides the engine's block size (bytes).
	BlockSize int `json:"block_size,omitempty"`
	// Limit caps the number of streamed pair records (0 = all).
	Limit int `json:"limit,omitempty"`
	// OrderWindow, when positive, streams pairs in deterministic
	// partition-cell order, reordering within a window of this many
	// cells (0 = unordered, the fastest).
	OrderWindow int `json:"order_window,omitempty"`
	// TimeoutMS bounds the request's wall clock in milliseconds,
	// overriding the server's default timeout (and clamped to its
	// -max-timeout). 0 means use the server default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// CellBand, when set, restricts the sweep to partition-grid cells
	// [lo, hi) — the cluster scatter unit for joins. The partition phase
	// still scans the full input; reference-point dedup makes bands that
	// tile the grid partition the pair set exactly. Coordinator-internal;
	// plain clients omit it.
	CellBand *[2]int `json:"cell_band,omitempty"`
}

// pairRecord is one streamed joined pair.
type pairRecord struct {
	Type string `json:"type"` // "pair"
	AID  int64  `json:"a_id"`
	BID  int64  `json:"b_id"`
	AOff int64  `json:"a_off"`
	BOff int64  `json:"b_off"`
}

// joinSummary is the terminal record of a join stream.
type joinSummary struct {
	Type        string  `json:"type"` // "summary"
	Streamed    int     `json:"streamed"`
	Candidates  int64   `json:"candidates"`
	Refined     int64   `json:"refined"`
	Duplicates  int64   `json:"duplicates"`
	PartitionMS float64 `json:"partition_ms"`
	MBPerS      float64 `json:"mb_per_s"`
	// ShardsFailed is set only by a coordinator whose scattered join
	// degraded; see querySummary.ShardsFailed.
	ShardsFailed int `json:"shards_failed,omitempty"`
}

// validate range-checks the request (shared by the worker's handleJoin
// and the coordinator, which fails malformed joins before any worker RPC).
func (j *joinRequest) validate() error {
	switch {
	case j.Limit < 0:
		return fmt.Errorf("limit must be >= 0")
	case j.Cell != 0 && (j.Cell < minJoinCell || j.Cell > 360):
		return fmt.Errorf("cell must be between %g and 360 degrees", minJoinCell)
	case j.OrderWindow < 0:
		return fmt.Errorf("order_window must be >= 0")
	case j.TimeoutMS < 0:
		return fmt.Errorf("timeout_ms must be >= 0")
	case j.CellBand != nil && (j.CellBand[0] < 0 || j.CellBand[1] < j.CellBand[0]):
		return fmt.Errorf("cell_band must be [lo, hi) with 0 <= lo <= hi")
	}
	switch j.Mask {
	case "", "parity", "both":
		return nil
	}
	return fmt.Errorf("mask must be parity or both, got %q", j.Mask)
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if !decodeBody(w, r, &req) {
		return
	}
	entry, ok := s.source(req.Source)
	if !ok {
		writeError(w, http.StatusNotFound, 0, "unknown source %q", req.Source)
		return
	}
	if err := req.validate(); err != nil {
		writeError(w, http.StatusBadRequest, 0, "%v", err)
		return
	}
	// Both wire masks split purely by feature ID, so sidecar-enabled
	// engines may rebuild the partition sets from the index tape.
	spec := atgis.JoinSpec{CellSize: req.Cell, OrderWindow: req.OrderWindow, BoundsSafeMask: true}
	if req.CellBand != nil {
		spec.CellLo, spec.CellHi = req.CellBand[0], req.CellBand[1]
	}
	selfJoin := false
	switch req.Mask {
	case "", "parity":
		spec.Mask = func(f *geom.Feature) uint8 {
			if f.ID%2 == 0 {
				return query.SideA
			}
			return query.SideB
		}
	case "both":
		selfJoin = true
		spec.Mask = func(*geom.Feature) uint8 { return query.SideA | query.SideB }
	}
	opt := s.opt
	if req.BlockSize > 0 {
		opt.BlockSize = req.BlockSize
	}

	ctx := atgis.WithTenant(r.Context(), tenantOf(r))
	ctx, cancel := s.withDeadline(ctx, req.TimeoutMS)
	defer cancel()
	out := newNDJSONWriter(w, r)
	defer out.stop() // flush the gzip tail and disarm the interval timer

	pairs := s.eng.JoinStream(ctx, entry.src, spec, opt)
	defer pairs.Close()
	streamed := 0
	for pairs.Next() {
		p := pairs.Pair()
		if selfJoin && p.AOff == p.BOff {
			continue // an object trivially intersects itself
		}
		if req.Limit > 0 && streamed >= req.Limit {
			break
		}
		if !out.write(pairRecord{Type: "pair", AID: p.AID, BID: p.BID, AOff: p.AOff, BOff: p.BOff}) {
			return
		}
		streamed++
	}
	sum, err := pairs.Summary()
	if err != nil {
		if errors.Is(err, atgis.ErrSourceFault) {
			entry.markFault(err)
		}
		if r.Context().Err() != nil {
			return
		}
		if !out.started {
			writeExecError(w, err)
			return
		}
		out.writeFinal(execErrorRecord(err))
		return
	}
	entry.passDone(req.CellBand == nil)
	out.writeFinal(joinSummary{
		Type:        "summary",
		Streamed:    streamed,
		Candidates:  sum.JoinStats.Candidates,
		Refined:     sum.JoinStats.Refined,
		Duplicates:  sum.JoinStats.Duplicates,
		PartitionMS: float64(sum.PartitionStats.Total().Microseconds()) / 1e3,
		MBPerS:      sum.PartitionStats.ThroughputMBs(),
	})
}
