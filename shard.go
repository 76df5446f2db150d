package atgis

import (
	"context"
	"fmt"

	"atgis/internal/geojson"
	"atgis/internal/wkt"
)

// Shard-range execution: a prepared query restricted to a byte range of
// the source, the worker half of atgis-serve's scatter-gather cluster
// mode (docs/API.md, "Cluster coordinator"). The paper's associative
// fold is what makes this sound — block results compose across machines
// exactly as they compose across workers — provided every feature is
// owned by exactly one shard. Ownership comes from deterministic
// alignment: AlignShard moves each raw offset forward to the first
// feature boundary at or after it, a computation that depends only on
// the bytes from that offset onward, so the worker ending shard k at
// raw offset X and the worker starting shard k+1 at X agree on the
// aligned boundary with no coordination, and a feature belongs to the
// shard whose aligned range contains its start offset. Adjacent aligned
// ranges therefore tile the feature set with no gap and no overlap, and
// per-shard results merge into exactly the single-pass result (integer
// counts and MBR merge bit-exactly; floating-point sum aggregates may
// differ in the last ulp because shard merging regroups the additions).
//
// A shard is not a runner of its own but a restriction of a pass, so it
// runs warm whenever an unsharded pass would: with a validated sidecar
// the worker runs over the tape entries of the range (tape.go) — no
// boundary scan, no feature parsed that the tape answers, a range with
// nothing to parse not read at all. Without one it runs the cold block
// plan (plan.go) over the range,
// always with the PAT machinery (boundary-aligned blocks need the
// known-state splits; FAT speculation has no shard-local repair story).
// A partial pass must never persist a partial tape, so a worker that may
// write sidecars answers its first shard miss with the full recording
// pass and serves the shard from it, the sink filtered to the range.
// Alignment reads the bytes either way, which is what lets a warm and a
// cold worker agree on every boundary.

// ShardRange is a half-open raw byte range [Start, End) of a source.
// Callers may pass arbitrary offsets; execution aligns both ends
// forward to feature boundaries (AlignShard) before any parsing.
type ShardRange struct {
	Start, End int64
}

// AlignShard aligns r's raw offsets to feature boundaries for src's
// format: the first GeoJSON feature-object start, or the first WKT line
// start, at or after each offset (an offset at or past EOF aligns to
// EOF). OSM XML cannot be range-sharded — its two-pass execution needs
// the global node table — and returns an error. Alignment is
// idempotent and purely content-determined, so adjacent shards aligned
// on identical content tile the source exactly.
func AlignShard(src Source, r ShardRange) (ShardRange, error) {
	data := src.Bytes()
	n := int64(len(data))
	if r.Start < 0 {
		r.Start = 0
	}
	if r.End > n || r.End < 0 {
		r.End = n
	}
	switch src.DataFormat() {
	case GeoJSON:
		r.Start = geojson.NextFeatureBoundary(data, r.Start)
		if r.End < n {
			r.End = geojson.NextFeatureBoundary(data, r.End)
		}
	case WKT:
		r.Start = wkt.NextLineStart(data, r.Start)
		if r.End < n {
			r.End = wkt.NextLineStart(data, r.End)
		}
	default:
		return r, fmt.Errorf("atgis: cannot shard %v source by byte range", src.DataFormat())
	}
	if r.Start > r.End {
		r.Start = r.End
	}
	return r, nil
}

// ExecuteShard runs the prepared query over only the features whose
// start offsets fall in the aligned form of r, blocking until the
// partial summary is complete. Summing ExecuteShard results over ranges
// that tile the source reproduces Execute's counts and MBR exactly (see
// the comment above for the float-sum caveat).
func (p *PreparedQuery) ExecuteShard(ctx context.Context, src Source, r ShardRange) (*Result, error) {
	return p.run(ctx, src, &r, nil)
}

// StreamShard is the streaming form of ExecuteShard: matching features
// of the aligned range stream in input order, exactly the subsequence
// of Stream's output that falls inside the range.
func (p *PreparedQuery) StreamShard(ctx context.Context, src Source, r ShardRange) *Results {
	return p.stream(ctx, src, &r)
}
