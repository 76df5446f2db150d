package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"atgis"
	"atgis/internal/cluster"
)

// This file is the coordinator half of cluster mode: the handleCluster*
// handlers scatter plain client requests over the workers and merge the
// streams (the mechanics live in internal/cluster). The worker half is
// handleQuery and handleJoin themselves — a scattered sub-request is the
// same handler with a shard range or a cell band set.

func (s *Server) handleClusterHealthz(w http.ResponseWriter, r *http.Request) {
	workers := s.cl.Workers()
	status := "ok"
	for _, ws := range workers {
		if !ws.Healthy || ws.Degraded {
			status = "degraded"
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"status": status, "workers": workers})
}

// clusterStatsBlock is the cluster section of the coordinator's
// GET /v1/stats: worker health, shard-level fault counters, and each
// reachable worker's own stats document verbatim.
type clusterStatsBlock struct {
	Workers     []cluster.WorkerStatus     `json:"workers"`
	Counters    cluster.Counters           `json:"counters"`
	WorkerStats map[string]json.RawMessage `json:"worker_stats"`
}

func (s *Server) handleClusterStats(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
	defer cancel()
	block := clusterStatsBlock{
		Workers:     s.cl.Workers(),
		Counters:    s.cl.Snapshot(),
		WorkerStats: make(map[string]json.RawMessage),
	}
	for _, ws := range block.Workers {
		if !ws.Healthy {
			continue
		}
		var raw json.RawMessage
		if err := s.cl.FetchWorkerJSON(ctx, ws.URL, "/v1/stats", &raw); err == nil {
			block.WorkerStats[ws.URL] = raw
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"uptime_seconds": time.Since(s.started).Seconds(),
		"cluster":        block,
	})
}

// clusterSourceInfo is one source in the coordinator's merged view.
type clusterSourceInfo struct {
	Name    string   `json:"name"`
	Format  string   `json:"format"`
	Bytes   int64    `json:"bytes"`
	Workers []string `json:"workers"`
	// Conflict marks a split-brain registration (workers serve different
	// files under this name); queries against it fail with 409.
	Conflict bool `json:"conflict,omitempty"`
}

func (s *Server) handleClusterSources(w http.ResponseWriter, r *http.Request) {
	views := s.cl.Sources(r.Context())
	infos := make([]clusterSourceInfo, 0, len(views))
	for _, v := range views {
		infos = append(infos, clusterSourceInfo{
			Name: v.Name, Format: v.Format, Bytes: v.Bytes,
			Workers: v.Workers, Conflict: v.Conflict,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"sources": infos})
}

func (s *Server) handleClusterRegister(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusForbidden, 0,
		"coordinator does not register sources; register the file on every worker")
}

// writeLookupError maps a cluster source-lookup failure onto a status:
// unknown source → 404, split-brain registration → 409 (no merge of
// divergent copies is meaningful), workers unreachable → 502.
func writeLookupError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, cluster.ErrNoWorkers):
		writeError(w, http.StatusNotFound, 0, "%v", err)
	case errors.Is(err, cluster.ErrSplitBrain):
		writeError(w, http.StatusConflict, 0, "%v", err)
	default:
		writeErrorKind(w, http.StatusBadGateway, "cluster", 0, "source lookup: %v", err)
	}
}

// affinityOrder is the stable per-source worker layout shards spread
// over round-robin: rendezvous-sorted by source name, so a source's
// shard k keeps landing on the same worker (warm page cache) while the
// worker set is stable.
func affinityOrder(view cluster.SourceView) []string {
	out := append([]string(nil), view.Workers...)
	cluster.Affinity(out, "src:"+view.Name)
	return out
}

// shardFaultRecord is the in-band degradation record the coordinator
// writes when a shard exhausts its retries.
func shardFaultRecord(idx int, err error) errorRecord {
	return errorRecord{
		Type: "error", Kind: "shard_fault",
		Error: fmt.Sprintf("shard %d failed after retries: %v", idx, err),
	}
}

// scatterFailed is the epilogue of a scatter: it reports whether err ended
// the request, having told the client what it still can — nothing when
// the client is gone, a 502 when no record was streamed yet, an in-band
// cluster error once the 200 is committed.
func scatterFailed(w http.ResponseWriter, r *http.Request, out *ndjsonWriter, err error) bool {
	switch {
	case err == nil:
		return false
	case r.Context().Err() != nil:
		// client gone; nowhere to report
	case !out.started:
		writeErrorKind(w, http.StatusBadGateway, "cluster", 0, "scatter failed: %v", err)
	default:
		out.writeFinal(errorRecord{Type: "error", Kind: "cluster", Error: err.Error()})
	}
	return true
}

func (s *Server) handleClusterQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Shard != nil {
		writeError(w, http.StatusBadRequest, 0, "shard is coordinator-internal; send plain queries")
		return
	}
	// Validate before any worker RPC so malformed requests fail fast
	// with a clean 400 (workers re-validate their sub-requests anyway).
	if _, _, err := req.compile(s.opt); err != nil {
		writeError(w, http.StatusBadRequest, 0, "%v", err)
		return
	}
	if req.TimeoutMS < 0 {
		writeError(w, http.StatusBadRequest, 0, "timeout_ms must be >= 0")
		return
	}
	ctx, cancel := s.withDeadline(r.Context(), req.TimeoutMS)
	defer cancel()
	view, err := s.cl.LookupSource(ctx, req.Source)
	if err != nil {
		writeLookupError(w, err)
		return
	}

	var subs []cluster.SubRequest
	if view.Format == atgis.OSMXML.String() {
		// OSM XML needs a whole-document pass (the node table is global),
		// so the query proxies to one worker unsharded instead of
		// scattering — cluster mode still buys failover, not speedup.
		sub := req
		sub.Limit = 0
		body, merr := json.Marshal(&sub)
		if merr != nil {
			writeError(w, http.StatusInternalServerError, 0, "marshal sub-request: %v", merr)
			return
		}
		subs = []cluster.SubRequest{{Body: body, Key: "query:" + req.Source}}
	} else {
		assign := affinityOrder(view)
		for i, sh := range cluster.PlanBytes(view.Bytes, len(view.Workers)) {
			sub := req
			sub.Limit = 0 // the coordinator applies the client limit globally
			sub.Shard = &shardSpec{Start: sh.Start, End: sh.End}
			body, merr := json.Marshal(&sub)
			if merr != nil {
				writeError(w, http.StatusInternalServerError, 0, "marshal sub-request: %v", merr)
				return
			}
			subs = append(subs, cluster.SubRequest{
				Body:   body,
				Key:    fmt.Sprintf("query:%s:%d", req.Source, i),
				Raw:    &cluster.Range{Start: sh.Start, End: sh.End},
				Prefer: assign[i%len(assign)],
			})
		}
	}

	out := newNDJSONWriter(w, r)
	defer out.stop()
	start := time.Now()
	merged := querySummary{Type: "summary"}
	var mbr *[4]float64
	streamed := 0
	err = s.cl.Scatter(ctx, cluster.ScatterSpec{
		Path:    "/v1/query",
		Tenant:  tenantOf(r),
		Workers: view.Workers,
		Subs:    subs,
		Emit: func(line []byte) bool {
			if req.Limit > 0 && streamed >= req.Limit {
				return true // drain silently; the summary covers the full pass
			}
			if !out.writeRaw(line) {
				return false
			}
			streamed++
			return true
		},
		OnSummary: func(idx int, line []byte) error {
			var ws querySummary
			if uerr := json.Unmarshal(line, &ws); uerr != nil {
				return fmt.Errorf("shard %d summary: %w", idx, uerr)
			}
			merged.Matched += ws.Matched
			merged.Scanned += ws.Scanned
			merged.SumArea += ws.SumArea
			merged.SumPerimeter += ws.SumPerimeter
			merged.Blocks += ws.Blocks
			if ws.Workers > merged.Workers {
				merged.Workers = ws.Workers
			}
			merged.Repaired += ws.Repaired
			merged.Reprocessed += ws.Reprocessed
			if ws.MBR != nil {
				if mbr == nil {
					m := *ws.MBR
					mbr = &m
				} else {
					mbr[0] = min(mbr[0], ws.MBR[0])
					mbr[1] = min(mbr[1], ws.MBR[1])
					mbr[2] = max(mbr[2], ws.MBR[2])
					mbr[3] = max(mbr[3], ws.MBR[3])
				}
			}
			return nil
		},
		OnFault: func(idx int, ferr error) bool {
			merged.ShardsFailed++
			return out.write(shardFaultRecord(idx, ferr))
		},
	})
	if scatterFailed(w, r, out, err) {
		return
	}
	merged.MBR = mbr
	wall := time.Since(start)
	merged.WallMS = float64(wall.Microseconds()) / 1e3
	if wall > 0 {
		merged.MBPerS = float64(view.Bytes) / (1 << 20) / wall.Seconds()
	}
	out.writeFinal(merged)
}

// scatterOrderWindow is the cell-order window forced onto scattered
// join sub-requests. Scattered joins always run ordered — deterministic
// band output is what makes a mid-stream retry resumable and the merged
// stream reproducible — and the emitted order does not depend on the
// window size (it only bounds worker-side buffering).
const scatterOrderWindow = 64

func (s *Server) handleClusterJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.CellBand != nil {
		writeError(w, http.StatusBadRequest, 0, "cell_band is coordinator-internal; send plain joins")
		return
	}
	if err := req.validate(); err != nil {
		writeError(w, http.StatusBadRequest, 0, "%v", err)
		return
	}
	ctx, cancel := s.withDeadline(r.Context(), req.TimeoutMS)
	defer cancel()
	view, err := s.cl.LookupSource(ctx, req.Source)
	if err != nil {
		writeLookupError(w, err)
		return
	}

	cells := cluster.GridCells(req.Cell)
	assign := affinityOrder(view)
	bands := cluster.PlanCells(cells, len(view.Workers))
	subs := make([]cluster.SubRequest, 0, len(bands))
	for i, b := range bands {
		sub := req
		sub.Limit = 0
		band := b
		sub.CellBand = &band
		if sub.OrderWindow < scatterOrderWindow {
			sub.OrderWindow = scatterOrderWindow
		}
		body, merr := json.Marshal(&sub)
		if merr != nil {
			writeError(w, http.StatusInternalServerError, 0, "marshal sub-request: %v", merr)
			return
		}
		subs = append(subs, cluster.SubRequest{
			Body:   body,
			Key:    fmt.Sprintf("join:%s:%d", req.Source, i),
			Prefer: assign[i%len(assign)],
		})
	}

	out := newNDJSONWriter(w, r)
	defer out.stop()
	merged := joinSummary{Type: "summary"}
	streamed := 0
	err = s.cl.Scatter(ctx, cluster.ScatterSpec{
		Path:    "/v1/join",
		Tenant:  tenantOf(r),
		Workers: view.Workers,
		Subs:    subs,
		Emit: func(line []byte) bool {
			if req.Limit > 0 && streamed >= req.Limit {
				return true
			}
			if !out.writeRaw(line) {
				return false
			}
			streamed++
			return true
		},
		OnSummary: func(idx int, line []byte) error {
			var ws joinSummary
			if uerr := json.Unmarshal(line, &ws); uerr != nil {
				return fmt.Errorf("shard %d summary: %w", idx, uerr)
			}
			merged.Candidates += ws.Candidates
			merged.Refined += ws.Refined
			merged.Duplicates += ws.Duplicates
			// Bands partition-scan the full input in parallel: wall time
			// is the slowest band, not the sum.
			merged.PartitionMS = max(merged.PartitionMS, ws.PartitionMS)
			merged.MBPerS = max(merged.MBPerS, ws.MBPerS)
			return nil
		},
		OnFault: func(idx int, ferr error) bool {
			merged.ShardsFailed++
			return out.write(shardFaultRecord(idx, ferr))
		},
	})
	if scatterFailed(w, r, out, err) {
		return
	}
	merged.Streamed = streamed
	out.writeFinal(merged)
}
