package geojson

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"atgis/internal/lexer"
)

// fatRun folds doc as FAT blocks of stride bytes, unsorted: what the sink
// saw, in order. With known set the lexer state at each block start is
// composed from the summaries of the blocks before it and the block runs
// once (the engine's driver); otherwise ProcessBlockFAT speculates over
// it. runs is the largest number of machine runs any block took.
func fatRun(doc []byte, cfg *Config, stride int, known bool) (feats []FeatureOut, reprocessed, runs int, err error) {
	fold := NewFold(doc, cfg, func(f FeatureOut) { feats = append(feats, f) })
	q := lexer.JSONDefault
	for off := 0; off < len(doc); off += stride {
		start, end := int64(off), int64(min(off+stride, len(doc)))
		var br BlockResult
		if known {
			br = ProcessBlockFATFrom(doc, start, end, q, cfg)
			q = lexer.SummarizeJSON(q, doc[start:end])
		} else {
			br = ProcessBlockFAT(doc, start, end, cfg)
		}
		runs = max(runs, len(br.Variants))
		fold.Add(br)
	}
	return feats, fold.Reprocessed, runs, fold.Finish()
}

// documentHostile are whole documents hostile to speculation over the
// pushdown stack rather than to the coordinate scanner: the anchor late or
// misleading, structure inside strings, escapes everywhere.
var documentHostile = map[string]string{
	"type last": `{"features":[{"id":1,"geometry":{"coordinates":[[0,0],[4,0],[4,3],[0,0]],"type":"LineString"},"properties":{"name":"late"},"type":"Feature"},` +
		`{"geometry":{"type":"Point","coordinates":[1,2]},"id":2,"type":"Feature"}],"type":"FeatureCollection"}`,
	"tag in a string": `{"type":"FeatureCollection","features":[{"type":"Feature","id":1,"properties":{"name":"{\"type\":\"Feature\",\"id\":9,\"geometry\":{\"type\":\"Point\",\"coordinates\":[9,9]}}"},"geometry":{"type":"Point","coordinates":[1,1]}}]}`,
	"tag in nested properties": `{"type":"FeatureCollection","features":[{"type":"Feature","id":1,"properties":{"name":"outer","inner":{"type":"Feature","id":9,"geometry":{"type":"Point","coordinates":[9,9]}}},"geometry":{"type":"Point","coordinates":[1,1]}},` +
		`{"type":"Feature","id":2,"properties":{"list":[{"type":"Feature","id":8,"geometry":{"type":"LineString","coordinates":[[8,8],[7,7]]}}]},"geometry":{"type":"LineString","coordinates":[[2,2],[3,3]]}}]}`,
	"escapes and CRLF": "{\"type\":\"FeatureCollection\",\r\n\"features\":[\r\n{\"type\":\"Feature\",\"id\":1,\"properties\":{\"name\":\"a\\\\\",\"k\\\"]}\":\"\\\\\\\"[{\"},\r\n\"geometry\":{\"type\":\"Polygon\",\"coordinates\":[[[0,0],\r\n[1,0],[1,1],\r\n[0,0]]]}}\r\n]}\r\n",
	"collections":      `{"type":"FeatureCollection","features":[{"type":"Feature","id":1,"geometry":{"type":"GeometryCollection","geometries":[{"type":"Point","coordinates":[1,2]},{"type":"GeometryCollection","geometries":[{"type":"LineString","coordinates":[[0.5,0.25],[2,4]]}]},{"type":"Polygon","coordinates":[[[0,0],[1,0],[1,1],[0,0]]]}]},"properties":{"name":"gc"}}]}`,
	"bare feature":     `{"type":"Feature","id":5,"geometry":{"type":"Point","coordinates":[102.5,0.5]},"properties":{"name":"alone"}}`,
	"no features":      `{"type":"FeatureCollection","features":[]}`,
}

// TestFATEqualsSequential: FAT blocks at any stride, with the lexer state
// composed or speculated over, fused or held to the token path, give what
// ParseSequential gives — the same features with the same bits in the same
// order, and on an unbalanced document the same error after the same
// prefix.
func TestFATEqualsSequential(t *testing.T) {
	docs := map[string][]byte{"coordinates": hostileDoc()}
	for _, c := range breakingCoords {
		docs["unbalanced "+c] = hostileDoc(c)
	}
	for name, doc := range documentHostile {
		docs[name] = []byte(doc)
	}
	for name, doc := range docs {
		for baseName, base := range diffBases() {
			fused, token := diffConfigs(base)
			for _, cfg := range []*Config{fused, token} {
				var want []FeatureOut
				wantErr := ParseSequential(doc, cfg, func(f FeatureOut) { want = append(want, f) })
				for _, stride := range []int{1, 7, 64, 4096, 1 << 20} {
					if stride == 1 && len(doc) > 4096 {
						continue // one-byte blocks are for the small documents
					}
					for _, known := range []bool{true, false} {
						what := fmt.Sprintf("%s/%s/tokenOnly=%v/stride %d/known=%v", name, baseName, cfg.tokenOnly, stride, known)
						got, _, runs, err := fatRun(doc, cfg, stride, known)
						if wantErr != nil && (err == nil || err.Error() != wantErr.Error()) {
							t.Fatalf("%s: error %v, sequential %v", what, err, wantErr)
						}
						if wantErr == nil && err != nil {
							t.Fatalf("%s: error %v, sequential none", what, err)
						}
						diffRendered(t, what, renderAll(got), renderAll(want))
						if known && runs > 1 {
							t.Fatalf("%s: a block of known start state took %d runs", what, runs)
						}
					}
				}
			}
		}
	}
}

// TestFATReportsErrorsWhereSequentialDoes: a speculative run that stops at
// a structural error hands the fold a tape cut short. The fold must answer
// with the sequential parser's result for that block: the same error text
// and the same emitted prefix, for a mismatched close inside an anchored
// feature and for one only the fold's context can see.
func TestFATReportsErrorsWhereSequentialDoes(t *testing.T) {
	feature := func(id int, coords string) string {
		return fmt.Sprintf(`{"type":"Feature","id":%d,"geometry":{"type":"LineString","coordinates":%s},"properties":{"name":"f%d"}}`, id, coords, id)
	}
	ok := `[[1,2],[3,4]]`
	docs := map[string]string{
		"inside an anchored feature": `{"type":"FeatureCollection","features":[` + feature(1, ok) + `,` + feature(2, ok) + `,` +
			feature(3, `[[1,2],[3,4}]`) + `,` + feature(4, ok) + `,` + feature(5, ok) + `]}`,
		// The array closes with a brace and a second one opens: what follows
		// the error still validates as features of a features array.
		"at base level": `{"type":"FeatureCollection","features":[` + feature(1, ok) + `,` + feature(2, ok) + `,` + feature(3, ok) +
			`},"features":[` + feature(4, ok) + `,` + feature(5, ok) + `]}`,
	}
	cfg := &Config{PropKeys: []string{"name"}}
	for name, doc := range docs {
		doc := []byte(doc)
		var want []FeatureOut
		wantErr := ParseSequential(doc, cfg, func(f FeatureOut) { want = append(want, f) })
		if wantErr == nil || !strings.Contains(wantErr.Error(), "mismatched close") || len(want) < 2 || len(want) > 3 {
			t.Fatalf("%s: sequential emitted %d features and failed with %v", name, len(want), wantErr)
		}
		// Half the document: the close that fails is at the base of the
		// second block, with two whole features behind it on the same tape.
		for _, stride := range []int{16, (len(doc) + 1) / 2, 1 << 20} {
			for _, known := range []bool{true, false} {
				got, reprocessed, _, err := fatRun(doc, cfg, stride, known)
				what := fmt.Sprintf("%s/stride %d/known=%v", name, stride, known)
				if err == nil || err.Error() != wantErr.Error() {
					t.Errorf("%s: error %v, sequential %v", what, err, wantErr)
				}
				diffRendered(t, what, renderAll(got), renderAll(want))
				if name == "inside an anchored feature" && reprocessed == 0 {
					t.Errorf("%s: the failed block was not reprocessed", what)
				}
			}
		}
	}
}

// TestSpecRunAfterReparseFeature: a pooled machine ReparseFeature used
// last stops scans at the first base-level close (Machine.single); a
// speculative run on the same shell must not inherit that.
func TestSpecRunAfterReparseFeature(t *testing.T) {
	doc := buildDoc(t, testFeatures())
	cfg := &Config{PropKeys: []string{"name"}}
	want := parseAll(t, doc, cfg)
	off := FindFeatureBoundaries(doc, 1)[0]
	for i := 0; i < 8; i++ { // the pool hands the shell back on the same P
		if _, err := ReparseFeature(doc, off); err != nil {
			t.Fatal(err)
		}
		for _, known := range []bool{true, false} {
			got, _, _, err := fatRun(doc, cfg, len(doc), known)
			if err != nil {
				t.Fatal(err)
			}
			diffRendered(t, fmt.Sprintf("round %d known=%v", i, known), renderAll(got), renderAll(want))
		}
	}
	// Whatever the pool did: the flag does not survive the reset.
	m := acquireSpecMachine(doc, cfg)
	m.single = true
	m.resetSpecRun(0)
	if m.single {
		t.Error("resetSpecRun leaves Machine.single set")
	}
	releaseSpecMachine(m)
}

// TestFATBlockRetainsNoTokens: what a FAT block holds on its way to the
// fold is its features and its deferred events — here a skip marker and a
// comma per feature and the wrapper's few tokens — however many tokens the
// block lexes. The pools are emptied first, so every buffer the block needs is
// allocated inside the measurement.
func TestFATBlockRetainsNoTokens(t *testing.T) {
	var ring strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&ring, "[%d.5,%d.25],", i%90, i%45)
	}
	ring.WriteString("[0.5,0.25]")
	var sb strings.Builder
	sb.WriteString(`{"type":"FeatureCollection","features":[`)
	const n = 64
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"type":"Feature","id":%d,"geometry":{"type":"Polygon","coordinates":[[%s]]},"properties":{}}`, i, ring.String())
	}
	sb.WriteString(`]}`)
	doc := []byte(sb.String())
	tokens := 0
	lexer.ScanJSON(lexer.JSONDefault, doc, 0, func(lexer.Token) { tokens++ })
	cfg := &Config{BoundsOnly: true} // nothing of a feature is built

	runtime.GC()
	runtime.GC() // twice: the pools' victim caches go too
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	br := ProcessBlockFATFrom(doc, 0, int64(len(doc)), lexer.JSONDefault, cfg)
	runtime.ReadMemStats(&after)
	st := br.Variants[0].state
	if len(st.features) != n || len(st.spec) > 2*n+16 {
		t.Fatalf("block holds %d features and %d events, want %d and two each", len(st.features), len(st.spec), n)
	}
	// A feature and an event live twice, in the machine's buffer, grown by
	// doubling, and in the detached state; the rest is the machine shell and
	// one ring of positions in the scanner's scratch. 42 kB when written.
	held := after.TotalAlloc - before.TotalAlloc
	bound := uint64(512*(len(st.features)+len(st.spec)) + 16<<10)
	if held > bound {
		t.Errorf("a cold block allocated %d B for %d features and %d events, bound %d", held, len(st.features), len(st.spec), bound)
	}
	if perToken := uint64(16 * tokens); bound*2 > perToken {
		t.Fatalf("the bound %d does not tell a 16 B/token tape (%d B) apart", bound, perToken)
	}
	br.Release()
}
