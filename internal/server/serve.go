package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"atgis"
	"atgis/internal/cluster"
	"atgis/internal/geom"
	"atgis/internal/query"
)

// endpoint is what differs between /v1/query and /v1/join (serve owns
// the rest; docs/ARCHITECTURE.md, "One request path"). R is the request
// body, S the summary record that ends the stream.
type endpoint[R, S any] struct {
	// name is "query" or "join": the route is /v1/<name>, here and on the
	// workers a coordinator scatters to.
	name string
	// check validates the endpoint's own fields of a decoded body — all
	// of them, before any source is looked up — and returns what serve
	// itself acts on.
	check func(req *R) (common, error)
	// local runs req over src on this node's engine and returns the
	// summary of the whole pass. Payload records go to emit in stream
	// order until it returns false (the pass still runs to its end, unless
	// emit cancelled it); emit has encoded a record when it returns, so
	// one record value can carry a whole stream. A leading non-payload
	// record goes to out. A failure before the first record leaves out
	// untouched, so the client gets a status rather than a broken stream.
	local func(ctx context.Context, s *Server, src atgis.Source, req *R, out *ndjsonWriter, emit func(rec record) bool) (S, error)
	// cut plans a coordinator's scatter of req over the workers serving
	// view: one sub-request per shard in merge order, and — when the
	// shards are byte ranges — the raw range of each.
	cut func(req *R, view cluster.SourceView) ([]R, []cluster.Range)
	// fold adds one shard's summary to the merged one.
	fold func(merged, shard *S)
	// seal completes a summary — a worker's own or a coordinator's merged
	// one — with what serve counted.
	seal func(sum *S, t tally)
}

// common is what serve itself reads of a request body.
type common struct {
	source    string
	limit     int
	timeoutMS int
	// partial names the coordinator-internal field the request carries
	// ("shard", "cell_band"), "" on a plain client request. A coordinator
	// refuses such a request; a worker's pass over it covers part of the
	// source.
	partial string
}

// tally is what serve counts over one request.
type tally struct {
	// limit is the client's cap on payload records (0 = all), streamed how
	// many were forwarded. The limit stops forwarding, never the pass, so
	// the summary covers the full input.
	limit, streamed int
	// Coordinator only: shards that exhausted their retries, and the
	// scatter's wall clock over the source's bytes (a worker's engine
	// times its own pass, so wall stays 0 there).
	failed int
	bytes  int64
	wall   time.Duration
}

// open reports whether the limit admits another payload record.
func (t *tally) open() bool { return t.limit == 0 || t.streamed < t.limit }

// serve builds the handler of one endpoint: everything the two endpoints
// and the two modes share, around the one thing the mode decides — where
// the ordered stream of records comes from (this node's engine, or the
// workers' merged streams; a worker request is the one-shard, no-RPC case
// of the same path). The body is validated in full first, so a malformed
// request is a 400 in either mode whatever else is wrong with it. The
// request context carries the tenant for admission and the deadline, and
// feeds the engine's cancellation path: a dropped connection or an
// expired deadline stops the pass between blocks. The epilogue tells the
// client what it still can: nothing when it is gone, a typed status while
// the stream has not started, an in-band error record once the 200 is
// committed (a coordinator reads one as a failed attempt and retries the
// shard elsewhere).
func serve[R, S any](s *Server, ep *endpoint[R, S]) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req R
		if !decodeBody(w, r, &req) {
			return
		}
		c, err := ep.check(&req)
		switch {
		case err != nil:
			err = failf(http.StatusBadRequest, "%v", err)
		case c.limit < 0:
			err = failf(http.StatusBadRequest, "limit must be >= 0")
		case c.timeoutMS < 0:
			err = failf(http.StatusBadRequest, "timeout_ms must be >= 0")
		}
		if err != nil {
			writeFailure(w, err)
			return
		}
		tenant := r.Header.Get("X-Atgis-Tenant") // absent: the anonymous tenant
		ctx, cancel := s.withDeadline(atgis.WithTenant(r.Context(), tenant), c.timeoutMS)
		defer cancel()
		out := newNDJSONWriter(w, r)
		defer out.stop() // flush the gzip tail and disarm the interval timer

		t := tally{limit: c.limit}
		var sum S
		if s.cl != nil {
			sum, err = scatter(ctx, s.cl, ep, &req, c, tenant, out, &t)
		} else if entry, ok := s.source(c.source); !ok {
			err = failf(http.StatusNotFound, "unknown source %q", c.source)
		} else {
			sum, err = ep.local(ctx, s, entry.src, &req, out, func(rec record) bool {
				if !out.writeRecord(rec) {
					cancel() // nobody reads any more: abandon the pass
					return false
				}
				t.streamed++
				return t.open()
			})
			if err == nil {
				entry.passDone(c.partial == "")
			} else if errors.Is(err, atgis.ErrSourceFault) {
				entry.markFault(err)
			}
		}

		switch {
		case err == nil:
			ep.seal(&sum, t)
			out.writeFinal(sum)
		case r.Context().Err() != nil:
			// client gone; nowhere to report
		case !out.started:
			writeFailure(w, err)
		default:
			_, kind, _ := classify(err)
			out.writeFinal(errorRecord{Type: "error", Kind: kind, Error: err.Error()})
		}
	}
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
	// Dist is "haversine" (default), "spherical" or "andoyer".
	Dist string `json:"dist,omitempty"`
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
	if len(q.PropKeys) > 0 {
		opt.PropKeys = q.PropKeys
	}
	return spec, opt, nil
}

// featureRecord is one streamed match. appendJSON (record.go) writes it;
// the tags say what encoding/json would write, byte for byte.
type featureRecord struct {
	Type       string            `json:"type"` // "feature"
	ID         int64             `json:"id"`
	Offset     int64             `json:"offset"`
	BBox       [4]float64        `json:"bbox"`
	Area       float64           `json:"area,omitempty"`
	Perimeter  float64           `json:"perimeter,omitempty"`
	Properties map[string]string `json:"properties,omitempty"`
}

// newFeatureRecord builds the wire form of one streamed match from its
// identity and per-feature value, without touching the source bytes: the
// box travels with the match (every wire query has a reference, so the
// pass computed it). Properties are the caller's to add.
func newFeatureRecord(spec *query.Spec, m query.Match, v query.FeatureVal) featureRecord {
	rec := featureRecord{
		Type:   "feature",
		ID:     m.ID,
		Offset: m.Offset,
		BBox:   [4]float64{m.Box.MinX, m.Box.MinY, m.Box.MaxX, m.Box.MaxY},
	}
	if spec.WantArea {
		rec.Area = v.Area
	}
	if spec.WantPerimeter {
		rec.Perimeter = v.Perimeter
	}
	return rec
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

var queryEndpoint = endpoint[queryRequest, querySummary]{
	name: "query",
	check: func(q *queryRequest) (common, error) {
		c := common{source: q.Source, limit: q.Limit, timeoutMS: q.TimeoutMS}
		if q.Shard != nil {
			c.partial = "shard"
		}
		_, _, err := q.compile(atgis.Options{})
		return c, err
	},
	local: localQuery,
	cut:   cutQuery,
	fold: func(m, ws *querySummary) {
		m.Matched += ws.Matched
		m.Scanned += ws.Scanned
		m.SumArea += ws.SumArea
		m.SumPerimeter += ws.SumPerimeter
		m.Blocks += ws.Blocks
		m.Workers = max(m.Workers, ws.Workers)
		m.Repaired += ws.Repaired
		m.Reprocessed += ws.Reprocessed
		switch {
		case ws.MBR == nil:
		case m.MBR == nil:
			m.MBR = ws.MBR
		default:
			m.MBR[0] = min(m.MBR[0], ws.MBR[0])
			m.MBR[1] = min(m.MBR[1], ws.MBR[1])
			m.MBR[2] = max(m.MBR[2], ws.MBR[2])
			m.MBR[3] = max(m.MBR[3], ws.MBR[3])
		}
	},
	seal: func(sum *querySummary, t tally) {
		sum.Type = "summary"
		sum.ShardsFailed = t.failed
		if t.wall > 0 {
			sum.WallMS = float64(t.wall.Microseconds()) / 1e3
			sum.MBPerS = float64(t.bytes) / (1 << 20) / t.wall.Seconds()
		}
	},
}

// localQuery is a worker's side of /v1/query, for plain clients and —
// with req.Shard set — for a coordinator: the same pass restricted to the
// request's raw byte range, with the shard handshake record first so the
// coordinator can verify range continuity across workers before
// interleaving their records. A shard pass uses the worker's sidecar
// like any other (warm from the tape, or — on a readwrite worker's first
// miss — the full recording pass filtered to the range), so workers with
// and without a tape mix freely: alignment is read off the bytes either
// way.
func localQuery(ctx context.Context, s *Server, src atgis.Source, req *queryRequest, out *ndjsonWriter, emit func(rec record) bool) (sum querySummary, err error) {
	spec, opt, err := req.compile(s.opt)
	if err != nil {
		return sum, err
	}
	pq, err := s.eng.Prepare(spec, opt)
	if err != nil {
		return sum, err
	}
	execute, stream := pq.Execute, pq.Stream
	var head *cluster.ShardHead
	if req.Shard != nil {
		// Align once: the head reports the aligned range and the pass takes
		// it as its shard (re-aligning an aligned range is two constant-time
		// look-ups, not two more boundary scans).
		shard, err := atgis.AlignShard(src, atgis.ShardRange{Start: req.Shard.Start, End: req.Shard.End})
		if err != nil {
			// Unshardable format (OSM XML) or an out-of-order range.
			return sum, failf(http.StatusBadRequest, "shard: %v", err)
		}
		head = &cluster.ShardHead{
			Type: "shard", Start: req.Shard.Start, End: req.Shard.End,
			AlignedStart: shard.Start, AlignedEnd: shard.End,
		}
		execute = func(ctx context.Context, src atgis.Source) (*atgis.Result, error) {
			return pq.ExecuteShard(ctx, src, shard)
		}
		stream = func(ctx context.Context, src atgis.Source) *atgis.Results {
			return pq.StreamShard(ctx, src, shard)
		}
	}

	var res *atgis.Result
	if spec.Kind == query.Aggregation {
		// Nothing streams before the pass completes, so the head waits for
		// it too: a failed aggregate still gets its status.
		if res, err = execute(ctx, src); err == nil && head != nil {
			out.write(head)
		}
	} else {
		// Containment: stream matches as the pipeline merges them. A shard
		// commits its 200 with the head, so its failures are all in-band.
		if head != nil {
			out.write(head)
		}
		matches := stream(ctx, src)
		defer matches.Close()
		rec := new(featureRecord) // one per stream: emit encodes it before the next match
		for matches.Next() {
			*rec = newFeatureRecord(spec, matches.Match(), matches.Value())
			if len(opt.PropKeys) > 0 {
				rec.Properties = matches.Feature().Properties
			}
			if !emit(rec) {
				break
			}
		}
		res, err = matches.Summary()
	}
	if err != nil {
		return sum, err
	}
	sum = querySummary{
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
	return sum, nil
}

// cutQuery shards a query by byte range, one range per serving worker;
// the workers align the ranges (atgis.AlignShard), so nothing is read
// here.
func cutQuery(req *queryRequest, view cluster.SourceView) ([]queryRequest, []cluster.Range) {
	sub := *req
	sub.Limit = 0 // the client limit applies to the merged stream
	if view.Format == atgis.OSMXML.String() {
		// OSM XML needs a whole-document pass (the node table is global),
		// so the query proxies to one worker unsharded — cluster mode still
		// buys failover there, not speedup.
		return []queryRequest{sub}, nil
	}
	ranges := cluster.PlanBytes(view.Bytes, len(view.Workers))
	subs := make([]queryRequest, len(ranges))
	for i, r := range ranges {
		sub.Shard = &shardSpec{Start: r.Start, End: r.End}
		subs[i] = sub
	}
	return subs, ranges
}

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
	// Limit caps the number of streamed pair records (0 = all).
	Limit int `json:"limit,omitempty"`
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

// pairRecord is one streamed joined pair, written like featureRecord.
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

var joinEndpoint = endpoint[joinRequest, joinSummary]{
	name: "join",
	check: func(j *joinRequest) (common, error) {
		c := common{source: j.Source, limit: j.Limit, timeoutMS: j.TimeoutMS}
		if j.CellBand != nil {
			c.partial = "cell_band"
		}
		switch {
		case j.Cell != 0 && (j.Cell < atgis.MinJoinCell || j.Cell > 360):
			return c, fmt.Errorf("cell must be between %g and 360 degrees", atgis.MinJoinCell)
		case j.CellBand != nil && (j.CellBand[0] < 0 || j.CellBand[1] <= j.CellBand[0]):
			return c, fmt.Errorf("cell_band must be [lo, hi) with 0 <= lo < hi")
		case j.Mask != "" && j.Mask != "parity" && j.Mask != "both":
			return c, fmt.Errorf("mask must be parity or both, got %q", j.Mask)
		}
		return c, nil
	},
	local: localJoin,
	cut:   cutJoin,
	fold: func(m, ws *joinSummary) {
		m.Candidates += ws.Candidates
		m.Refined += ws.Refined
		m.Duplicates += ws.Duplicates
		// Bands partition-scan the full input in parallel: wall time is
		// the slowest band, not the sum.
		m.PartitionMS = max(m.PartitionMS, ws.PartitionMS)
		m.MBPerS = max(m.MBPerS, ws.MBPerS)
	},
	seal: func(sum *joinSummary, t tally) {
		sum.Type = "summary"
		sum.Streamed = t.streamed
		sum.ShardsFailed = t.failed
	},
}

// localJoin is a worker's side of /v1/join; with req.CellBand set the
// sweep covers that band of the partition grid only.
func localJoin(ctx context.Context, s *Server, src atgis.Source, req *joinRequest, _ *ndjsonWriter, emit func(rec record) bool) (sum joinSummary, err error) {
	// Both wire masks split purely by feature ID, so sidecar-enabled
	// engines may rebuild the partition sets from the index tape.
	spec := atgis.JoinSpec{CellSize: req.Cell, BoundsSafeMask: true}
	if req.CellBand != nil {
		spec.CellLo, spec.CellHi = req.CellBand[0], req.CellBand[1]
	}
	selfJoin := req.Mask == "both"
	if selfJoin {
		spec.Mask = func(*geom.Feature) uint8 { return query.SideA | query.SideB }
	} else {
		spec.Mask = func(f *geom.Feature) uint8 {
			if f.ID%2 == 0 {
				return query.SideA
			}
			return query.SideB
		}
	}
	pairs := s.eng.JoinStream(ctx, src, spec, s.opt)
	defer pairs.Close()
	rec := new(pairRecord) // one per stream, as in localQuery
	for pairs.Next() {
		p := pairs.Pair()
		if selfJoin && p.AOff == p.BOff {
			continue // an object trivially intersects itself
		}
		*rec = pairRecord{Type: "pair", AID: p.AID, BID: p.BID, AOff: p.AOff, BOff: p.BOff}
		if !emit(rec) {
			break
		}
	}
	res, err := pairs.Summary()
	if err != nil {
		return sum, err
	}
	return joinSummary{
		Candidates:  res.JoinStats.Candidates,
		Refined:     res.JoinStats.Refined,
		Duplicates:  res.JoinStats.Duplicates,
		PartitionMS: float64(res.PartitionStats.Total().Microseconds()) / 1e3,
		MBPerS:      res.PartitionStats.ThroughputMBs(),
	}, nil
}

// cutJoin shards a join by contiguous bands of partition-grid cells,
// one band per serving worker (every format, OSM XML included: each
// worker partitions the whole input and sweeps its band). Every band
// streams in cell order, so the merged stream is the single-node stream
// and a mid-stream retry of a band can resume where it stopped.
func cutJoin(req *joinRequest, view cluster.SourceView) ([]joinRequest, []cluster.Range) {
	sub := *req
	sub.Limit = 0 // the client limit applies to the merged stream
	bands := cluster.PlanCells(cluster.GridCells(req.Cell), len(view.Workers))
	subs := make([]joinRequest, len(bands))
	for i := range bands {
		sub.CellBand = &bands[i]
		subs[i] = sub
	}
	return subs, nil
}
