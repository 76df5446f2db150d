package atgis

// Invariants of the cold window pushdown: Prepare hands the extraction
// machine the window the sidecar planner would prune against
// (pruneWindow), and the machine drops a feature whose bounding box
// misses it before building anything (OSM XML's pass 2 does the same
// before resolving a way into geometry, the WKT worker before copying a
// scanned line out of its scratch buffers). That may change cost only.
// Every cell of {GeoJSON PAT, GeoJSON FAT, OSM XML, WKT} × {intersects,
// within, disjoint, no reference} runs with the pushdown and with it
// cleared from the prepared query's config (Window and BracketReject);
// the summary and the streamed records must be byte-identical, float
// aggregates compared as bit patterns.

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"atgis/internal/geojson"
	"atgis/internal/geom"
	"atgis/internal/query"
)

func TestWindowPushdownInvariant(t *testing.T) {
	eng := NewEngine(EngineConfig{Workers: 4})
	defer eng.Close()
	for _, format := range []Format{GeoJSON, OSMXML, WKT} {
		modes := []Mode{PAT}
		if format == GeoJSON {
			modes = append(modes, FAT)
		}
		testWindowPushdown(t, eng, mustOpen(t, writeSidecarCorpus(t, format)), modes)
	}
}

func testWindowPushdown(t *testing.T, eng *Engine, src *MappedSource, modes []Mode) {
	type predCase struct {
		name   string
		pred   query.Predicate
		noRef  bool
		pushes bool // pruneWindow admits a window
	}
	preds := []predCase{
		{"intersects", query.PredIntersects, false, true},
		{"within", query.PredWithin, false, true},
		{"disjoint", query.PredDisjoint, false, false},
		{"noref", query.PredIntersects, true, false},
	}
	for _, mode := range modes {
		for _, pc := range preds {
			name := fmt.Sprintf("%v/%v/%s", src.DataFormat(), mode, pc.name)
			spec := diffSpec(pc.pred, 0.15, true)
			spec.WantHull = true
			if pc.noRef {
				spec.Ref = nil
			}
			opt := Options{Mode: mode, BlockSize: 8 << 10, PropKeys: []string{"name"}}
			run := func(pushdown bool) (string, *geojson.Config) {
				pq, err := eng.Prepare(spec, opt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !pushdown {
					pq.cfg.Window, pq.cfg.BracketReject = nil, false
				}
				sum, err := pq.Execute(context.Background(), src)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var b strings.Builder
				b.WriteString(renderQueryResult(sum))
				fmt.Fprintf(&b, "hull=%d\n", len(sum.Res.HullPts))
				res := pq.Stream(context.Background(), src)
				for res.Next() {
					f, v := res.Feature(), res.Value()
					line, err := json.Marshal(struct {
						diffRecord
						Points int               `json:"points"`
						Props  map[string]string `json:"props"`
						Box    string            `json:"box"`
					}{diffRecord{ID: f.ID, Off: f.Offset, Area: bits(v.Area), Perim: bits(v.Perimeter)},
						f.Geom.NumPoints(), f.Properties, renderBox(v.Box)})
					if err != nil {
						t.Fatal(err)
					}
					b.Write(line)
					b.WriteByte('\n')
				}
				streamed, err := res.Summary()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				b.WriteString(renderQueryResult(streamed))
				return b.String(), pq.cfg
			}
			got, cfg := run(true)
			if (cfg.Window != nil) != pc.pushes {
				t.Fatalf("%s: window pushed down = %v, want %v", name, cfg.Window != nil, pc.pushes)
			}
			want, _ := run(false)
			if got != want {
				t.Errorf("%s: pushdown changed the result\nwith:\n%s\nwithout:\n%s", name, got, want)
			}
			if !strings.Contains(got, "match id=") {
				t.Fatalf("%s: no matches — the window does not exercise the case", name)
			}
		}
	}
}

// TestJoinBoundsOnlyPartition: with a bounds-safe mask the GeoJSON and
// WKT partition passes extract boxes only; the join must not notice, also
// when the mask reads the bounds it is allowed to read.
func TestJoinBoundsOnlyPartition(t *testing.T) {
	eng := NewEngine(EngineConfig{Workers: 4})
	defer eng.Close()
	westEast := func(f *geom.Feature) uint8 {
		if f.Geom.Bound().Center().X < 0 {
			return query.SideA
		}
		return query.SideA | query.SideB
	}
	for _, format := range []Format{GeoJSON, WKT} {
		src := mustOpen(t, writeSidecarCorpus(t, format))
		modes := []Mode{PAT}
		if format == GeoJSON {
			modes = append(modes, FAT)
		}
		for name, mask := range map[string]func(*geom.Feature) uint8{"parity": paritySideMask, "bounds": westEast, "nil": nil} {
			for _, mode := range modes {
				name := fmt.Sprintf("%v/%s/%v", format, name, mode)
				render := func(boundsSafe bool) string {
					spec := JoinSpec{Mask: mask, CellSize: 10, BoundsSafeMask: boundsSafe}
					jr, err := eng.Join(context.Background(), src, spec, Options{Mode: mode, BlockSize: 8 << 10})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					lines := make([]string, 0, len(jr.Pairs))
					for _, p := range jr.Pairs {
						lines = append(lines, fmt.Sprintf("a=%d/%d b=%d/%d", p.AID, p.AOff, p.BID, p.BOff))
					}
					sort.Strings(lines)
					return fmt.Sprintf("pairs=%d candidates=%d duplicates=%d\n%s", len(jr.Pairs),
						jr.JoinStats.Candidates, jr.JoinStats.Duplicates, strings.Join(lines, "\n"))
				}
				boxes, full := render(true), render(false)
				if mask == nil {
					continue // a nil mask is bounds-safe either way; the run is the smoke test
				}
				if boxes != full {
					t.Errorf("%s: bounds-only partition pass changed the join\nbounds-only:\n%.400s\nfull:\n%.400s", name, boxes, full)
				}
				if !strings.Contains(full, "a=") {
					t.Fatalf("%s: no pairs", name)
				}
			}
		}
	}
}
