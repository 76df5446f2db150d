package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"atgis/internal/cluster"
)

// This file is the coordinator half of cluster mode: its control-plane
// handlers, and scatter — where serve's record stream comes from when
// the server fronts workers (the mechanics live in internal/cluster).
// The worker half is the local side of the same endpoints: a scattered
// sub-request is a plain request with a shard range or a cell band set.

func (s *Server) handleClusterHealthz(w http.ResponseWriter, r *http.Request) {
	workers := s.cl.Workers()
	status := "ok"
	for _, ws := range workers {
		if !ws.Healthy || ws.Degraded {
			status = "degraded"
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": status, "workers": workers})
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
	writeJSON(w, http.StatusOK, map[string]any{
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
	writeJSON(w, http.StatusOK, map[string]any{"sources": infos})
}

func (s *Server) handleClusterRegister(w http.ResponseWriter, r *http.Request) {
	writeFailure(w, failf(http.StatusForbidden,
		"coordinator does not register sources; register the file on every worker"))
}

// scatter is a coordinator's source of the record stream: req is cut
// into one sub-request per shard over the workers serving the source,
// their streams merged strictly in shard order (payload lines forwarded
// as the workers wrote them, never re-encoded), their summaries folded
// into one. A shard that exhausts its retries leaves an in-band
// shard_fault record and the pass goes on.
func scatter[R, S any](ctx context.Context, cl *cluster.Coordinator, ep *endpoint[R, S], req *R, c common, tenant string, out *ndjsonWriter, t *tally) (merged S, err error) {
	if c.partial != "" {
		return merged, failf(http.StatusBadRequest, "%s is coordinator-internal; send plain requests", c.partial)
	}
	view, err := cl.LookupSource(ctx, c.source)
	switch {
	case err == nil:
	case errors.Is(err, cluster.ErrNoWorkers):
		return merged, failf(http.StatusNotFound, "%v", err)
	case errors.Is(err, cluster.ErrSplitBrain):
		// No merge of divergent copies is meaningful.
		return merged, failf(http.StatusConflict, "%v", err)
	default:
		return merged, failf(http.StatusBadGateway, "source lookup: %v", err)
	}
	// Shards spread round-robin over the source's workers in rendezvous
	// order by source name, so a source's shard k keeps landing on the
	// same worker (warm page cache, warm sidecar) while the worker set is
	// stable.
	assign := append([]string(nil), view.Workers...)
	cluster.Affinity(assign, "src:"+view.Name)
	reqs, raw := ep.cut(req, view)
	subs := make([]cluster.SubRequest, len(reqs))
	for i := range reqs {
		body, err := json.Marshal(&reqs[i])
		if err != nil {
			return merged, failf(http.StatusInternalServerError, "marshal sub-request: %v", err)
		}
		subs[i] = cluster.SubRequest{
			Body:   body,
			Key:    fmt.Sprintf("%s:%s:%d", ep.name, c.source, i),
			Prefer: assign[i%len(assign)],
		}
		if raw != nil {
			subs[i].Raw = &raw[i]
		}
	}

	start := time.Now()
	err = cl.Scatter(ctx, cluster.ScatterSpec{
		Path:    "/v1/" + ep.name,
		Tenant:  tenant,
		Workers: view.Workers,
		Subs:    subs,
		Emit: func(line []byte) bool {
			if !t.open() {
				return true // drain silently; the summary covers the full pass
			}
			if !out.writeRaw(line) {
				return false
			}
			t.streamed++
			return true
		},
		OnSummary: func(idx int, line []byte) error {
			var ws S
			if err := json.Unmarshal(line, &ws); err != nil {
				return fmt.Errorf("shard %d summary: %w", idx, err)
			}
			ep.fold(&merged, &ws)
			return nil
		},
		OnFault: func(idx int, ferr error) bool {
			t.failed++
			return out.write(errorRecord{
				Type: "error", Kind: "shard_fault",
				Error: fmt.Sprintf("shard %d failed after retries: %v", idx, ferr),
			})
		},
	})
	if err != nil {
		return merged, failf(http.StatusBadGateway, "scatter failed: %v", err)
	}
	t.bytes, t.wall = view.Bytes, time.Since(start)
	return merged, nil
}
