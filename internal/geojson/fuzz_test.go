package geojson

// FuzzGeoJSONBlock drives both block parsers (boundary-assuming PAT and
// speculative FAT, from every lexer state) over arbitrary bytes. The parsers sit
// directly on memory-mapped user data, so the contract under fuzzing is
// strict no-panic: malformed input may yield zero features or repair
// requests, never a crash — a panic here would otherwise surface as a
// *pipeline.PassPanicError failing a tenant's query in production.

import (
	"testing"

	"atgis/internal/lexer"
)

func FuzzGeoJSONBlock(f *testing.F) {
	f.Add([]byte(`{"type":"FeatureCollection","features":[{"type":"Feature","properties":{"name":"a"},"geometry":{"type":"Polygon","coordinates":[[[0,0],[1,0],[1,1],[0,0]]]}}]}`))
	f.Add([]byte(`{"type":"Feature","geometry":{"type":"Point","coordinates":[1,2]}}`))
	f.Add([]byte(`{"type":"Feature","geometry":{"type":"MultiPolygon","coordinates":[[[[0,0],[2,0],[2,2],[0,0]]]]}}`))
	f.Add([]byte(`{"geometry":{"type":"LineString","coordinates":[[0,0],[1,1]]}}`))
	f.Add([]byte(`,"geometry":{"type":"Polygon","coordinates":[[[`))
	f.Add([]byte(`{"type":"Feature","properties":{"k":"A\"}"}}`))
	f.Add([]byte("{}\x00\xff{\"type\":"))
	f.Add([]byte(`[[[1e309,-1e309],[NaN,null]]]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := &Config{PropKeys: []string{"name"}}
		// Whole input as one block, plus an interior sub-block: the
		// speculative parser's whole point is starting mid-structure.
		ProcessBlockPAT(data, 0, int64(len(data)), cfg)
		ProcessBlockFAT(data, 0, int64(len(data)), cfg)
		if len(data) > 2 {
			mid := int64(len(data) / 2)
			ProcessBlockPAT(data, mid, int64(len(data)), cfg)
			ProcessBlockPAT(data, 1, mid, cfg)
			for _, q := range lexer.JSONStartStates() {
				ProcessBlockFATFrom(data, mid, int64(len(data)), q, cfg).Release()
			}
		}
	})
}
