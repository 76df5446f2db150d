package cluster

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"

	"atgis/internal/partition"
)

// Range is a half-open raw byte range [Start, End) of a source — the
// unit a single-pass query scatters by. Workers align both ends forward
// to feature boundaries deterministically (atgis.AlignShard), so the
// coordinator plans on raw offsets without reading a single source
// byte.
type Range struct {
	Start, End int64
}

// PlanBytes carves [0, total) into n contiguous raw ranges of
// near-equal size (the last absorbs the remainder). n is clamped to at
// least 1 and at most total so no empty range is planned for non-empty
// input.
func PlanBytes(total int64, n int) []Range {
	if total <= 0 {
		return []Range{{0, 0}}
	}
	if n < 1 {
		n = 1
	}
	if int64(n) > total {
		n = int(total)
	}
	step := total / int64(n)
	out := make([]Range, n)
	var at int64
	for i := range out {
		end := at + step
		if i == n-1 {
			end = total
		}
		out[i] = Range{Start: at, End: end}
		at = end
	}
	return out
}

// GridCells returns the number of partition-grid cells a join with the
// given cell size sweeps: the engine's own grid, so coordinator bands and
// worker sweeps cannot drift.
func GridCells(cell float64) int {
	return partition.WorldGrid(cell).NumCells()
}

// PlanCells carves [0, cells) into n contiguous cell bands — the unit a
// join scatters by. Each band is swept by one worker over its own full
// partition pass; the reference-point dedup makes the bands' pair sets
// disjoint and exhaustive.
func PlanCells(cells, n int) [][2]int {
	if cells <= 0 {
		return [][2]int{{0, 0}}
	}
	if n < 1 {
		n = 1
	}
	if n > cells {
		n = cells
	}
	step := cells / n
	out := make([][2]int, n)
	at := 0
	for i := range out {
		end := at + step
		if i == n-1 {
			end = cells
		}
		out[i] = [2]int{at, end}
		at = end
	}
	return out
}

// Affinity sorts urls in place into the stable rendezvous order for
// key — the coordinator's per-source worker layout, so a source's
// shards keep landing on the same workers (warm page cache) across
// requests and coordinator restarts.
func Affinity(urls []string, key string) { rendezvousSort(urls, key) }

// rendezvousSort orders urls by descending rendezvous-hash score for
// key (highest-random-weight assignment): every coordinator ranks the
// same shard the same way, the preferred worker for a shard is stable
// under unrelated worker churn, and shards spread evenly without a
// shared shard-map store. Ties (never expected — URLs are distinct)
// break by URL for determinism.
func rendezvousSort(urls []string, key string) {
	sort.Slice(urls, func(i, j int) bool {
		si, sj := rendezvousScore(urls[i], key), rendezvousScore(urls[j], key)
		if si != sj {
			return si > sj
		}
		return urls[i] < urls[j]
	})
}

func rendezvousScore(workerURL, key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(workerURL))
	h.Write([]byte{'#'})
	h.Write([]byte(key))
	return fmix64(h.Sum64())
}

// fmix64 is the murmur3 finalizer. Raw FNV-1a is too weak here: the
// URL prefix fixes the hash state into per-worker bands ~2^62 apart,
// and a short key suffix only perturbs the low ~2^40 bits, so without
// this the same worker wins every key and rendezvous degenerates into
// a static preference list.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// ShardHead is the handshake record a worker prepends to every
// byte-shard response: the raw range it was asked to run and the
// aligned range it actually owned. The coordinator chains these —
// shard k's AlignedEnd must equal shard k+1's AlignedStart — which
// holds exactly when the workers aligned identical bytes, so divergent
// source copies (split-brain registration that slipped past the
// size/format check) are detected before their records interleave.
type ShardHead struct {
	Type         string `json:"type"` // "shard"
	Start        int64  `json:"start"`
	End          int64  `json:"end"`
	AlignedStart int64  `json:"aligned_start"`
	AlignedEnd   int64  `json:"aligned_end"`
}

// DecodeShardHead parses a shard handshake line.
func DecodeShardHead(line []byte) (ShardHead, error) {
	var h ShardHead
	if err := json.Unmarshal(line, &h); err != nil {
		return h, fmt.Errorf("cluster: malformed shard head: %w", err)
	}
	if h.Type != "shard" {
		return h, fmt.Errorf("cluster: expected shard head, got record type %q", h.Type)
	}
	if h.AlignedStart < h.Start || h.AlignedEnd < h.AlignedStart {
		return h, fmt.Errorf("cluster: shard head offsets out of order: %+v", h)
	}
	return h, nil
}
