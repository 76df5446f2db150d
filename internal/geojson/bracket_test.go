package geojson

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"atgis/internal/geom"
)

// Under Config.BracketReject the fused scanner may reject a feature on the
// integer brackets of its coordinates, so a rejected feature's box is only
// bounded: it must contain the token path's box and miss the window.
// Everything else a consumer observes — ids, offsets, geometry presence,
// properties, the evaluation, block traces and repairs — is the token
// path's.

// bracketBases are window configurations with BracketReject set: the two
// windowed rows of diffBases, and a window with fractional edges whose
// brackets meet features the exact boxes miss.
func bracketBases() map[string]Config {
	bases := map[string]Config{}
	for name, base := range diffBases() {
		if base.Window != nil {
			base.BracketReject = true
			bases[name] = base
		}
	}
	bases["fraction"] = Config{PropKeys: []string{"name"}, BracketReject: true,
		Window: &geom.Box{MinX: 0.3, MinY: 0.3, MaxX: 1.7, MaxY: 1.7}}
	return bases
}

// diffBracket compares got, extracted under a BracketReject config with
// window win, with want, the token path's, and returns how many rejected
// features carry a bracket box rather than the exact one.
func diffBracket(t *testing.T, what string, got, want []FeatureOut, win geom.Box) (bracketed int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d features, token path %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		exact := g
		exact.Box = w.Box
		if renderOut(exact) != renderOut(w) {
			t.Fatalf("%s: feature %d\n fused %s\n token %s", what, i, renderOut(g), renderOut(w))
		}
		if boxBits(g.Box) == boxBits(w.Box) {
			continue
		}
		bracketed++
		if w.Box.Intersects(win) {
			t.Fatalf("%s: feature %d meets the window but carries box %+v, not %+v", what, i, g.Box, w.Box)
		}
		if g.Box.Intersects(win) || !w.Box.IsEmpty() && !g.Box.ContainsBox(w.Box) {
			t.Fatalf("%s: feature %d: rejected with box %+v, which must contain %+v and miss %+v", what, i, g.Box, w.Box, win)
		}
	}
	return bracketed
}

func TestBracketRejectEqualsTokenSequential(t *testing.T) {
	docs := map[string][]byte{"coordinates": hostileDoc()}
	for _, c := range breakingCoords {
		docs["unbalanced "+c] = hostileDoc(c)
	}
	for name, doc := range documentHostile {
		docs[name] = []byte(doc)
	}
	for baseName, base := range bracketBases() {
		bracketed := 0
		for name, doc := range docs {
			fused, token := diffConfigs(base)
			var got, want []FeatureOut
			errF := ParseSequential(doc, fused, func(f FeatureOut) { got = append(got, f) })
			errT := ParseSequential(doc, token, func(f FeatureOut) { want = append(want, f) })
			what := fmt.Sprintf("%s/%s", name, baseName)
			if fmt.Sprint(errF) != fmt.Sprint(errT) {
				t.Fatalf("%s: error %v, token path %v", what, errF, errT)
			}
			bracketed += diffBracket(t, what, got, want, *base.Window)
		}
		if bracketed == 0 {
			t.Fatalf("%s: no feature was rejected on its brackets — the corpus does not exercise the gate", baseName)
		}
	}
}

// diffBracketPAT runs doc as PAT blocks cut at cuts under base and under
// the token path: the same traces, repairs and errors, and features as
// diffBracket wants them.
func diffBracketPAT(t *testing.T, what string, doc []byte, base Config, cuts []int64) {
	t.Helper()
	fused, token := diffConfigs(base)
	gotF, gotTrace, gotRep, gotErr := patRun(doc, fused, cuts)
	wantF, wantTrace, wantRep, wantErr := patRun(doc, token, cuts)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || gotRep != wantRep {
		t.Fatalf("%s: error %v repaired %d, token path %v repaired %d", what, gotErr, gotRep, wantErr, wantRep)
	}
	for i := range wantTrace {
		if gotTrace[i] != wantTrace[i] {
			t.Fatalf("%s: block %s, token path %s", what, gotTrace[i], wantTrace[i])
		}
	}
	diffBracket(t, what, gotF, wantF, *base.Window)
}

func TestBracketRejectEqualsTokenPATBlocks(t *testing.T) {
	doc := hostileDoc()
	rng := rand.New(rand.NewSource(43))
	for name, base := range bracketBases() {
		for _, minGap := range []int{1, 300, 4096, 1 << 20} {
			diffBracketPAT(t, fmt.Sprintf("%s/minGap=%d", name, minGap), doc, base, FindFeatureBoundaries(doc, minGap))
		}
		for trial := 0; trial < 30; trial++ {
			cuts := []int64{FindFeatureBoundaries(doc, 1)[0]}
			for n := 1 + rng.Intn(10); n > 0; n-- {
				cuts = append(cuts, cuts[0]+1+int64(rng.Intn(len(doc)-int(cuts[0])-1)))
			}
			sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
			dedup := cuts[:1]
			for _, c := range cuts[1:] {
				if c > dedup[len(dedup)-1] {
					dedup = append(dedup, c)
				}
			}
			diffBracketPAT(t, fmt.Sprintf("%s/trial %d cuts %v", name, trial, dedup), doc, base, dedup)
		}
	}
}

// TestBracketRejectEqualsTokenFAT runs the FAT fold, state composed or
// speculated, at every stride against the token path's sequential run.
func TestBracketRejectEqualsTokenFAT(t *testing.T) {
	docs := map[string][]byte{"coordinates": hostileDoc()}
	for _, c := range breakingCoords {
		docs["unbalanced "+c] = hostileDoc(c)
	}
	for name, doc := range documentHostile {
		docs[name] = []byte(doc)
	}
	for name, doc := range docs {
		for baseName, base := range bracketBases() {
			fused, token := diffConfigs(base)
			var want []FeatureOut
			wantErr := ParseSequential(doc, token, func(f FeatureOut) { want = append(want, f) })
			for _, stride := range []int{1, 7, 64, 4096, 1 << 20} {
				if stride == 1 && len(doc) > 4096 {
					continue // one-byte blocks are for the small documents
				}
				for _, known := range []bool{true, false} {
					what := fmt.Sprintf("%s/%s/stride %d/known=%v", name, baseName, stride, known)
					got, _, _, err := fatRun(doc, fused, stride, known)
					if fmt.Sprint(err) != fmt.Sprint(wantErr) {
						t.Fatalf("%s: error %v, token path %v", what, err, wantErr)
					}
					diffBracket(t, what, got, want, *base.Window)
				}
			}
		}
	}
}

// FuzzBracketScan is FuzzCoordScan under BracketReject: arbitrary bytes
// where a coordinates value goes, a window on integer and on fractional
// edges, sequentially and through PAT blocks cut at an arbitrary byte.
func FuzzBracketScan(f *testing.F) {
	for i, c := range hostileCoords {
		f.Add([]byte(c), uint16(i*7))
	}
	f.Add([]byte(`[[[10.25,10.5],[12.75,10],[12,12.125],[10.25,10.5]]]`), uint16(40))
	const head = `{"type": "FeatureCollection", "features": [{"type": "Feature", "id": 7, "geometry": {"type": "Polygon", "coordinates": `
	const tail = `}, "properties": {"name": "x"}}, {"type": "Feature", "id": 8, "geometry": {"coordinates": [[30.5,30.5],[31,31]], "type": "LineString"}}]}`
	first := int64(len(`{"type": "FeatureCollection", "features": [`))
	wins := []geom.Box{{MinX: 0, MinY: 0, MaxX: 2, MaxY: 2}, {MinX: 0.3, MinY: 0.3, MaxX: 1.7, MaxY: 1.7}}
	f.Fuzz(func(t *testing.T, coords []byte, cut uint16) {
		doc := []byte(head + string(coords) + tail)
		for i := range wins {
			base := Config{PropKeys: []string{"name"}, Window: &wins[i], BracketReject: true}
			fused, token := diffConfigs(base)
			var got, want []FeatureOut
			errF := ParseSequential(doc, fused, func(f FeatureOut) { got = append(got, f) })
			errT := ParseSequential(doc, token, func(f FeatureOut) { want = append(want, f) })
			if fmt.Sprint(errF) != fmt.Sprint(errT) {
				t.Fatalf("sequential: error %v, token path %v", errF, errT)
			}
			diffBracket(t, "sequential", got, want, wins[i])
			mid := first + 1 + int64(cut)%(int64(len(doc))-first-1)
			diffBracketPAT(t, fmt.Sprintf("cut %d", mid), doc, base, []int64{first, mid})
		}
	})
}
