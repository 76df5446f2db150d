package atgis

// Chaos tests for the sidecar fault sites: the sidecar is an
// accelerator, never a dependency. A poisoned load must degrade to a
// cold pass with identical results and a healthy source; a poisoned
// write must never leave a partial `.atgx` (or temp litter) visible and
// must not fail the pass that recorded the tape.
//
// The faultinject registry is process-global, so these tests never run
// in t.Parallel() and always disarm with t.Cleanup(faultinject.Reset).

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"atgis/internal/faultinject"
	"atgis/internal/query"
	"atgis/internal/sidecar"
)

// coldReference runs the case matrix's aggregation query with sidecars
// off.
func coldReference(t *testing.T, path string) string {
	t.Helper()
	eng := NewEngine(EngineConfig{Workers: 2})
	defer eng.Close()
	src := mustOpen(t, path)
	res, err := eng.Query(context.Background(), src, diffSpec(query.PredIntersects, 0.2, false), Options{BlockSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return renderQueryResult(res)
}

func TestChaosSidecarLoadPanicFallsBackCold(t *testing.T) {
	path := writeSidecarCorpus(t, GeoJSON)
	cold := coldReference(t, path)

	// Build a perfectly good sidecar first, so the poisoned load is the
	// only thing standing between the pass and a warm run.
	buildEng := NewEngine(EngineConfig{Workers: 2, Sidecar: SidecarReadWrite})
	defer buildEng.Close()
	buildSrc := mustOpen(t, path)
	if _, err := buildEng.Query(context.Background(), buildSrc, diffSpec(query.PredIntersects, 0.2, false), Options{}); err != nil {
		t.Fatal(err)
	}
	if st := buildSrc.SidecarStats(); !st.Built || st.WriteError != "" {
		t.Fatalf("sidecar build failed: %+v", st)
	}

	for _, mode := range []struct {
		name  string
		fault func()
	}{
		{"plain panic", func() { panic("disk returned garbage") }},
		{"simulated memory fault", func() { panic(faultinject.SimulatedFault{Site: "sidecar.load"}) }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			t.Cleanup(faultinject.Reset)
			fault := mode.fault
			faultinject.Set("sidecar.load", func(label string, index int64) {
				if label == filepath.Base(path) {
					fault()
				}
			})
			eng := NewEngine(EngineConfig{Workers: 2, Sidecar: SidecarRead})
			defer eng.Close()
			src := mustOpen(t, path)
			res, err := eng.Query(context.Background(), src, diffSpec(query.PredIntersects, 0.2, false), Options{BlockSize: 8 << 10})
			if err != nil {
				t.Fatalf("pass failed instead of degrading to cold: %v", err)
			}
			if got := renderQueryResult(res); got != cold {
				t.Fatalf("degraded pass diverged from cold:\ncold:\n%s\ngot:\n%s", cold, got)
			}
			st := src.SidecarStats()
			if st.State != "rejected" || st.Hits != 0 {
				t.Fatalf("poisoned load was not rejected: %+v", st)
			}
			if !strings.Contains(st.LoadError, "panic") {
				t.Fatalf("load error does not surface the panic: %q", st.LoadError)
			}
			// The fault is confined to the sidecar: the same mapping keeps
			// serving once the hook disarms (the rejection is sticky for
			// this mapping, which is correct — a fresh mapping reloads).
			faultinject.Reset()
			if _, err := eng.Query(context.Background(), src, diffSpec(query.PredIntersects, 0.2, false), Options{}); err != nil {
				t.Fatalf("source unhealthy after sidecar rejection: %v", err)
			}
			fresh := mustOpen(t, path)
			if _, err := eng.Query(context.Background(), fresh, diffSpec(query.PredIntersects, 0.2, false), Options{}); err != nil {
				t.Fatal(err)
			}
			if st := fresh.SidecarStats(); st.State != "active" || st.Hits == 0 {
				t.Fatalf("sidecar not served once the fault cleared: %+v", st)
			}
		})
	}
}

func TestChaosSidecarWritePanicLeavesNoPartialFile(t *testing.T) {
	path := writeSidecarCorpus(t, WKT)
	cold := coldReference(t, path)
	dir := filepath.Dir(path)

	t.Cleanup(faultinject.Reset)
	faultinject.Set("sidecar.write", func(label string, index int64) {
		panic("no space left on device")
	})

	eng := NewEngine(EngineConfig{Workers: 2, Sidecar: SidecarReadWrite})
	defer eng.Close()
	src := mustOpen(t, path)
	res, err := eng.Query(context.Background(), src, diffSpec(query.PredIntersects, 0.2, false), Options{BlockSize: 8 << 10})
	if err != nil {
		t.Fatalf("recording pass failed because its persist failed: %v", err)
	}
	if got := renderQueryResult(res); got != cold {
		t.Fatalf("recording pass diverged from cold:\ncold:\n%s\ngot:\n%s", cold, got)
	}

	// The failed persist is surfaced, but the in-memory index stays
	// active: this process still gets its warm passes.
	st := src.SidecarStats()
	if st.State != "active" || !st.Built {
		t.Fatalf("in-memory index lost to a persist failure: %+v", st)
	}
	if !strings.Contains(st.WriteError, "panic") {
		t.Fatalf("write error does not surface the panic: %q", st.WriteError)
	}
	if _, err := eng.Query(context.Background(), src, diffSpec(query.PredIntersects, 0.2, false), Options{}); err != nil {
		t.Fatal(err)
	}
	if st := src.SidecarStats(); st.Hits == 0 {
		t.Fatalf("no warm hit from the in-memory index after persist failure: %+v", st)
	}

	// Nothing partial is visible on disk: no `.atgx`, no temp litter.
	if _, err := os.Stat(sidecar.PathFor(path)); !os.IsNotExist(err) {
		t.Fatalf(".atgx visible after failed write: %v", err)
	}
	tmp, err := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmp) != 0 {
		t.Fatalf("temp files left behind by failed write: %v", tmp)
	}

	// Once the fault clears, a fresh mapping rebuilds and persists.
	faultinject.Reset()
	fresh := mustOpen(t, path)
	if _, err := eng.Query(context.Background(), fresh, diffSpec(query.PredIntersects, 0.2, false), Options{}); err != nil {
		t.Fatal(err)
	}
	if st := fresh.SidecarStats(); st.WriteError != "" || !st.Built {
		t.Fatalf("rebuild after cleared fault failed: %+v", st)
	}
	if _, err := os.Stat(sidecar.PathFor(path)); err != nil {
		t.Fatalf("no .atgx after the fault cleared: %v", err)
	}
}
