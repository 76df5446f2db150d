package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"atgis/internal/geom"
)

// tiny returns a configuration small enough for CI smoke runs.
func tiny() Config {
	return Config{Features: 250, JoinFeatures: 150, MaxWorkers: 2, Seed: 7}
}

func checkReport(t *testing.T, r *Report) {
	t.Helper()
	if r.ID == "" || r.Title == "" {
		t.Fatalf("report missing id/title: %+v", r)
	}
	if len(r.Rows) == 0 {
		t.Fatalf("%s: no rows", r.ID)
	}
	for i, row := range r.Rows {
		if len(row) != len(r.Header) {
			t.Fatalf("%s row %d: %d cols, header has %d", r.ID, i, len(row), len(r.Header))
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), r.ID) {
		t.Errorf("%s: Print output missing id", r.ID)
	}
}

func TestTable2Sizes(t *testing.T) {
	r := Table2(tiny())
	checkReport(t, r)
	// OSM-X must be the largest single-copy dataset (paper Table 2).
	sizes := map[string]int{}
	for _, row := range r.Rows {
		n, _ := strconv.Atoi(row[2])
		sizes[row[0]] = n
	}
	if sizes["OSM-X"] <= sizes["OSM-G"] {
		t.Errorf("OSM-X (%d KB) should exceed OSM-G (%d KB)", sizes["OSM-X"], sizes["OSM-G"])
	}
	if sizes["OSM-10G"] <= 5*sizes["OSM-G"] {
		t.Errorf("replicated dataset too small: %d vs %d", sizes["OSM-10G"], sizes["OSM-G"])
	}
}

func TestFig9Smoke(t *testing.T) {
	for _, sub := range []string{"a", "b", "c"} {
		r := Fig9(tiny(), sub)
		checkReport(t, r)
		// Throughput columns must be positive.
		for _, row := range r.Rows {
			for _, col := range row[1:] {
				v, err := strconv.ParseFloat(col, 64)
				if err != nil || v <= 0 {
					t.Errorf("fig9%s: bad throughput %q", sub, col)
				}
			}
		}
	}
}

func TestFig10Smoke(t *testing.T) {
	r := Fig10(tiny())
	checkReport(t, r)
	// All system rows present.
	names := map[string]bool{}
	for _, row := range r.Rows {
		names[row[0]] = true
	}
	for _, want := range []string{
		"AT-GIS-PAT", "AT-GIS-FAT", "Hadoop-GIS(sim)", "SpatialHadoop(sim)",
		"RDBMS-B(rtree)", "RDBMS-G(rtree)", "ColScan-B", "ColScan-G",
	} {
		if !names[want] {
			t.Errorf("fig10 missing system %q", want)
		}
	}
}

func TestFig11Fig12Smoke(t *testing.T) {
	checkReport(t, Fig11(tiny()))
	r := Fig12(tiny())
	checkReport(t, r)
	if len(r.Rows) < 5 {
		t.Errorf("fig12 rows = %d, want >= 5 dataset variants", len(r.Rows))
	}
}

func TestFig13Fig14Fig15Smoke(t *testing.T) {
	checkReport(t, Fig13(tiny(), geom.SphericalProjection))
	checkReport(t, Fig13(tiny(), geom.Andoyer))
	checkReport(t, Fig14(tiny(), "a"))
	checkReport(t, Fig14(tiny(), "b"))
	r := Fig15(tiny())
	checkReport(t, r)
	if len(r.Rows) != 5*2 {
		t.Errorf("fig15 rows = %d, want 10 (5 cells x 2 stores)", len(r.Rows))
	}
}

func TestByID(t *testing.T) {
	for _, id := range []string{"fig13a", "FIG14B"} {
		if _, err := ByID(tiny(), id); err != nil {
			t.Errorf("ByID(%q): %v", id, err)
		}
	}
	if _, err := ByID(tiny(), "fig99"); err == nil {
		t.Error("unknown id should error")
	}
}
