// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on synthetic stand-ins for the OpenStreetMap datasets
// (substitutions documented in the paper map of docs/ARCHITECTURE.md).
// Each experiment returns a Report whose rows mirror the series the paper
// plots; EXPERIMENTS.md records the expected shapes.
package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"atgis"
	"atgis/internal/baselines/cluster"
	"atgis/internal/baselines/colscan"
	"atgis/internal/baselines/rtree"
	"atgis/internal/geom"
	"atgis/internal/partition"
	"atgis/internal/query"
	"atgis/internal/synth"
)

// Config scales the experiments to the host. Defaults target a laptop
// container; the paper's absolute numbers come from a 64-core server
// over hundreds of GB, so shapes — not magnitudes — are compared.
type Config struct {
	// Features is the base dataset size in objects.
	Features int
	// JoinFeatures sizes the join datasets (joins are quadratic-ish).
	JoinFeatures int
	// MaxWorkers caps the scaling sweeps (0 = NumCPU).
	MaxWorkers int
	// Seed keeps datasets reproducible.
	Seed int64
}

// Defaults fills unset fields.
func (c Config) Defaults() Config {
	if c.Features == 0 {
		c.Features = 4000
	}
	if c.JoinFeatures == 0 {
		c.JoinFeatures = 1200
	}
	if c.MaxWorkers == 0 {
		c.MaxWorkers = runtime.NumCPU()
	}
	if c.Seed == 0 {
		c.Seed = 20160626 // SIGMOD'16 start date
	}
	return c
}

// Report is a printable experiment result.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Print renders the report as an aligned table.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cols []string) {
		parts := make([]string, len(cols))
		for i, c := range cols {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "  # "+n)
	}
	fmt.Fprintln(w)
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000)
}

// genGeoJSON renders the standard OSM-like dataset.
func genGeoJSON(cfg Config, n int) []byte {
	var buf bytes.Buffer
	g := synth.New(synth.Config{
		Seed: cfg.Seed, N: n,
		MultiPolyFrac: 0.15, LineFrac: 0.15, MetadataBytes: 60,
	})
	if err := g.WriteGeoJSON(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// genJoinGeoJSON renders a spatially dense dataset for join experiments:
// real OSM data concentrates in urban areas, so join candidate sets are
// large; the scaled extent reproduces that density.
func genJoinGeoJSON(cfg Config, n int) []byte {
	var buf bytes.Buffer
	g := synth.New(synth.Config{
		Seed: cfg.Seed, N: n,
		MultiPolyFrac: 0.1, MetadataBytes: 40,
		ExtentScale: 0.08,
	})
	if err := g.WriteGeoJSON(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func mustDataset(data []byte, f atgis.Format) *atgis.Dataset {
	ds, err := atgis.FromBytes(data, f)
	if err != nil {
		panic(err)
	}
	return ds
}

// stdSpec is the Table-3 aggregation query.
func stdSpec(kind query.Kind) *query.Spec {
	s := &query.Spec{
		Kind: kind,
		Ref:  query.ScaleBox(synth.Extent, 0.25).AsPolygon(),
		Pred: query.PredIntersects,
		Dist: geom.Haversine,
	}
	if kind == query.Aggregation {
		s.WantArea = true
		s.WantPerimeter = true
	}
	if kind == query.Containment {
		s.KeepMatches = true
	}
	return s
}

// Table2 generates every dataset variant and reports sizes (paper
// Table 2, scaled down; substitution documented in docs/ARCHITECTURE.md).
func Table2(cfg Config) *Report {
	cfg = cfg.Defaults()
	r := &Report{
		ID:     "table2",
		Title:  "Datasets (synthetic stand-ins)",
		Header: []string{"name", "format", "size(KB)", "shapes"},
	}
	add := func(name, format string, data []byte, shapes int) {
		r.Rows = append(r.Rows, []string{
			name, format, fmt.Sprintf("%d", len(data)/1024), fmt.Sprintf("%d", shapes),
		})
	}
	g := func(c synth.Config) *synth.Generator { return synth.New(c) }
	base := synth.Config{Seed: cfg.Seed, N: cfg.Features, MultiPolyFrac: 0.15, LineFrac: 0.15, MetadataBytes: 60}

	var bj, bw, bx bytes.Buffer
	if err := g(base).WriteGeoJSON(&bj); err != nil {
		panic(err)
	}
	add("OSM-G", "GeoJSON", bj.Bytes(), cfg.Features)
	if err := g(base).WriteWKT(&bw); err != nil {
		panic(err)
	}
	add("OSM-W", "WKT", bw.Bytes(), cfg.Features)
	if err := g(base).WriteOSMXML(&bx); err != nil {
		panic(err)
	}
	add("OSM-X", "OSM XML", bx.Bytes(), cfg.Features)

	rep := base
	rep.Replicate = 10
	var br bytes.Buffer
	if err := g(rep).WriteGeoJSON(&br); err != nil {
		panic(err)
	}
	add("OSM-10G", "GeoJSON x10", br.Bytes(), cfg.Features*10)

	var bs bytes.Buffer
	sy := synth.Config{Seed: cfg.Seed, N: cfg.Features, Sigma: 2}
	if err := g(sy).WriteGeoJSON(&bs); err != nil {
		panic(err)
	}
	add("Synth(n,2)", "GeoJSON", bs.Bytes(), cfg.Features)
	r.Notes = append(r.Notes,
		"paper: OSM-X 592 GB / OSM-G 63.3 GB / OSM-W 41 GB / 187.6M shapes; scaled to container size")
	return r
}

// runQueryTimed executes a query and returns throughput MB/s.
func runQueryTimed(eng *atgis.Engine, ds *atgis.Dataset, spec *query.Spec, opt atgis.Options) (float64, *atgis.Result) {
	res, err := eng.Query(context.Background(), ds, spec, opt)
	if err != nil {
		panic(err)
	}
	return res.Stats.ThroughputMBs(), res
}

// Fig9 runs the core-count scaling sweeps: (a) containment,
// (b) aggregation, both FAT and PAT; (c) join (FAT partition pass). The
// pool's size is the only worker count there is, so a sweep over cores
// is an engine per point.
func Fig9(cfg Config, sub string) *Report {
	cfg = cfg.Defaults()
	data := genGeoJSON(cfg, cfg.Features)
	ds := mustDataset(data, atgis.GeoJSON)
	r := &Report{ID: "fig9" + sub}
	switch sub {
	case "a", "b":
		kind := query.Containment
		title := "containment"
		if sub == "b" {
			kind = query.Aggregation
			title = "aggregation"
		}
		r.Title = fmt.Sprintf("Scaling of %s query (throughput MB/s)", title)
		r.Header = []string{"cores", "AT-GIS-PAT", "AT-GIS-FAT"}
		for w := 1; w <= cfg.MaxWorkers; w *= 2 {
			spec := stdSpec(kind)
			eng := atgis.NewEngine(atgis.EngineConfig{Workers: w})
			patT, _ := runQueryTimed(eng, ds, spec, atgis.Options{Mode: atgis.PAT, BlockSize: 64 << 10})
			fatT, _ := runQueryTimed(eng, ds, spec, atgis.Options{Mode: atgis.FAT, BlockSize: 64 << 10})
			eng.Close()
			r.Rows = append(r.Rows, []string{fmt.Sprintf("%d", w), f2(patT), f2(fatT)})
		}
	case "c":
		r.Title = "Scaling of join query (throughput MB/s over input)"
		r.Header = []string{"cores", "AT-GIS (FAT)"}
		jdata := genJoinGeoJSON(cfg, cfg.JoinFeatures)
		jds := mustDataset(jdata, atgis.GeoJSON)
		for w := 1; w <= cfg.MaxWorkers; w *= 2 {
			eng := atgis.NewEngine(atgis.EngineConfig{Workers: w})
			start := time.Now()
			_, err := eng.Join(context.Background(), jds, atgis.JoinSpec{
				Mask:     idParityMask,
				CellSize: 10,
			}, atgis.Options{Mode: atgis.FAT, BlockSize: 64 << 10})
			elapsed := time.Since(start)
			eng.Close()
			if err != nil {
				panic(err)
			}
			mbs := float64(len(jdata)) / (1 << 20) / elapsed.Seconds()
			r.Rows = append(r.Rows, []string{fmt.Sprintf("%d", w), f2(mbs)})
		}
	}
	r.Notes = append(r.Notes, fmt.Sprintf("host has %d CPUs; the paper sweeps 1..64", runtime.NumCPU()))
	return r
}

func idParityMask(f *geom.Feature) uint8 {
	if f.ID%2 == 0 {
		return query.SideA
	}
	return query.SideB
}

// Fig10 compares query execution times across systems (paper Fig. 10).
func Fig10(cfg Config) *Report {
	cfg = cfg.Defaults()
	data := genGeoJSON(cfg, cfg.Features)
	ds := mustDataset(data, atgis.GeoJSON)
	eng := atgis.NewEngine(atgis.EngineConfig{})
	defer eng.Close()
	feats, err := eng.CollectFeatures(context.Background(), ds, atgis.Options{})
	if err != nil {
		panic(err)
	}
	ref := stdSpec(query.Containment).Ref

	r := &Report{
		ID:     "fig10",
		Title:  "Comparison of query execution times (ms; load/index time separate)",
		Header: []string{"system", "load(ms)", "containment(ms)", "aggregation(ms)", "join(ms)"},
	}
	timeIt := func(f func()) time.Duration {
		s := time.Now()
		f()
		return time.Since(s)
	}
	joinSpec := atgis.JoinSpec{Mask: idParityMask, CellSize: 10}

	// AT-GIS PAT / FAT: no load phase.
	for _, mode := range []atgis.Mode{atgis.PAT, atgis.FAT} {
		opt := atgis.Options{Mode: mode, BlockSize: 64 << 10}
		cT := timeIt(func() { runQueryTimed(eng, ds, stdSpec(query.Containment), opt) })
		aT := timeIt(func() { runQueryTimed(eng, ds, stdSpec(query.Aggregation), opt) })
		jT := timeIt(func() {
			if _, err := eng.Join(context.Background(), ds, joinSpec, opt); err != nil {
				panic(err)
			}
		})
		r.Rows = append(r.Rows, []string{
			"AT-GIS-" + mode.String(), "0", ms(cT), ms(aT), ms(jT),
		})
	}

	// Simulated Hadoop-GIS (no upfront index) and SpatialHadoop (upfront
	// index, cheaper queries).
	half := func(f *geom.Feature) int {
		if f.ID%2 == 0 {
			return 0
		}
		return 1
	}
	for _, sys := range []struct {
		name    string
		upfront time.Duration
		startup time.Duration
	}{
		{"Hadoop-GIS(sim)", 0, 20 * time.Millisecond},
		{"SpatialHadoop(sim)", 200 * time.Millisecond, 20 * time.Millisecond},
	} {
		// BytesPerObject reflects full serialised geometry records
		// (aggregation jobs ship them through the shuffle); the
		// bandwidth is scaled with the dataset so the shuffle fraction
		// matches cluster-scale behaviour.
		cl := cluster.New(cluster.Config{
			Nodes:          cfg.MaxWorkers,
			TaskStartup:    sys.startup,
			ShuffleMBps:    20,
			BytesPerObject: 16 << 10,
			UpfrontIndex:   sys.upfront,
		}, feats)
		cT := cl.Containment(ref).Elapsed
		aT := cl.Aggregation(ref, geom.Haversine, true).Elapsed
		jT := cl.Join(half, 10, geom.Intersects).Elapsed
		r.Rows = append(r.Rows, []string{sys.name, ms(sys.upfront), ms(cT), ms(aT), ms(jT)})
	}

	// Indexed RDBMS stand-in (DBMS-X / PostGIS): load+index, then fast
	// simple queries; join capped (does not complete at scale).
	it := items(feats)
	tr := rtree.Build(it, 16)
	for _, mode := range []struct {
		name   string
		refine bool
	}{{"RDBMS-B(rtree)", false}, {"RDBMS-G(rtree)", true}} {
		eng := &rtree.Engine{Tree: tr, Refine: mode.refine}
		cT := timeIt(func() { eng.Containment(ref) })
		aT := timeIt(func() { eng.Aggregation(ref, geom.Haversine) })
		var jT time.Duration
		var completed bool
		jT = timeIt(func() {
			_, completed = eng.Join(sideItems(feats, 0), 200000)
		})
		jcol := ms(jT)
		if !completed {
			jcol = ">" + jcol + " (capped)"
		}
		r.Rows = append(r.Rows, []string{mode.name, ms(tr.LoadDur), ms(cT), ms(aT), jcol})
	}

	// Column-scan stand-in (MonetDB-B/G).
	for _, mode := range []struct {
		name   string
		refine bool
	}{{"ColScan-B", false}, {"ColScan-G", true}} {
		cs := colscan.Load(feats, mode.refine)
		cT := timeIt(func() { cs.Containment(ref) })
		aT := timeIt(func() { cs.Aggregation(ref, geom.Haversine) })
		ea := colscan.Load(sideFeats(feats, 0), mode.refine)
		eb := colscan.Load(sideFeats(feats, 1), mode.refine)
		var st colscan.JoinStats
		jT := timeIt(func() { st = ea.Join(eb, 4_000_000) })
		jcol := ms(jT)
		if !st.Completed {
			jcol = "OOM(sim)"
		}
		r.Rows = append(r.Rows, []string{mode.name, ms(cs.LoadDur), ms(cT), ms(aT), jcol})
	}
	r.Notes = append(r.Notes,
		"cluster rows simulate task startup + shuffle; RDBMS join capped; colscan join materialises candidates")
	return r
}

func items(feats []geom.Feature) []rtree.Item {
	out := make([]rtree.Item, len(feats))
	for i, f := range feats {
		out[i] = rtree.Item{Box: f.Geom.Bound(), ID: f.ID, Geom: f.Geom}
	}
	return out
}

func sideFeats(feats []geom.Feature, side int64) []geom.Feature {
	var out []geom.Feature
	for _, f := range feats {
		if f.ID%2 == side {
			out = append(out, f)
		}
	}
	return out
}

func sideItems(feats []geom.Feature, side int64) []rtree.Item {
	return items(sideFeats(feats, side))
}

// Fig11 splits join execution into partition and join phases across
// cores (paper Fig. 11).
func Fig11(cfg Config) *Report {
	cfg = cfg.Defaults()
	data := genJoinGeoJSON(cfg, cfg.JoinFeatures)
	ds := mustDataset(data, atgis.GeoJSON)
	r := &Report{
		ID:     "fig11",
		Title:  "Partition and join query scaling (ms)",
		Header: []string{"cores", "partition(ms)", "join(ms)", "total(ms)"},
	}
	for w := 1; w <= cfg.MaxWorkers; w *= 2 {
		eng := atgis.NewEngine(atgis.EngineConfig{Workers: w})
		start := time.Now()
		jr, err := eng.Join(context.Background(), ds, atgis.JoinSpec{Mask: idParityMask, CellSize: 5},
			atgis.Options{Mode: atgis.FAT, BlockSize: 64 << 10})
		total := time.Since(start)
		eng.Close()
		if err != nil {
			panic(err)
		}
		part := jr.PartitionStats.Total()
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d", w), ms(part), ms(total - part), ms(total),
		})
	}
	return r
}

// Fig12 measures throughput per format and data size (paper Fig. 12).
func Fig12(cfg Config) *Report {
	cfg = cfg.Defaults()
	r := &Report{
		ID:     "fig12",
		Title:  "Performance of queries on three data formats (MB/s)",
		Header: []string{"dataset", "containment", "aggregation", "join", "combined"},
	}
	base := synth.Config{Seed: cfg.Seed, N: cfg.Features, MultiPolyFrac: 0.15, LineFrac: 0.15, MetadataBytes: 60}
	joinBase := synth.Config{Seed: cfg.Seed, N: cfg.JoinFeatures, MultiPolyFrac: 0.15, LineFrac: 0.15, MetadataBytes: 60}

	type variant struct {
		name   string
		format atgis.Format
		mode   atgis.Mode
		data   []byte
		jdata  []byte
	}
	var variants []variant
	{
		var b, jb bytes.Buffer
		if err := synth.New(base).WriteGeoJSON(&b); err != nil {
			panic(err)
		}
		if err := synth.New(joinBase).WriteGeoJSON(&jb); err != nil {
			panic(err)
		}
		variants = append(variants, variant{"OSM-G(PAT)", atgis.GeoJSON, atgis.PAT, b.Bytes(), jb.Bytes()})
		variants = append(variants, variant{"OSM-G(FAT)", atgis.GeoJSON, atgis.FAT, b.Bytes(), jb.Bytes()})
	}
	{
		var b, jb bytes.Buffer
		if err := synth.New(base).WriteWKT(&b); err != nil {
			panic(err)
		}
		if err := synth.New(joinBase).WriteWKT(&jb); err != nil {
			panic(err)
		}
		variants = append(variants, variant{"OSM-W", atgis.WKT, atgis.PAT, b.Bytes(), jb.Bytes()})
	}
	{
		var b, jb bytes.Buffer
		if err := synth.New(base).WriteOSMXML(&b); err != nil {
			panic(err)
		}
		if err := synth.New(joinBase).WriteOSMXML(&jb); err != nil {
			panic(err)
		}
		variants = append(variants, variant{"OSM-X", atgis.OSMXML, atgis.PAT, b.Bytes(), jb.Bytes()})
	}
	{
		rep := base
		rep.Replicate = 5
		var b bytes.Buffer
		if err := synth.New(rep).WriteGeoJSON(&b); err != nil {
			panic(err)
		}
		variants = append(variants, variant{"OSM-5G(rep)", atgis.GeoJSON, atgis.PAT, b.Bytes(), nil})
	}

	eng := atgis.NewEngine(atgis.EngineConfig{})
	defer eng.Close()
	for _, v := range variants {
		ds := mustDataset(v.data, v.format)
		opt := atgis.Options{Mode: v.mode, BlockSize: 64 << 10}
		cT, _ := runQueryTimed(eng, ds, stdSpec(query.Containment), opt)
		aT, _ := runQueryTimed(eng, ds, stdSpec(query.Aggregation), opt)
		jcol, ccol := "-", "-"
		if v.jdata != nil {
			jds := mustDataset(v.jdata, v.format)
			start := time.Now()
			if _, err := eng.Join(context.Background(), jds, atgis.JoinSpec{Mask: idParityMask, CellSize: 10}, opt); err != nil {
				panic(err)
			}
			jcol = f2(float64(len(v.jdata)) / (1 << 20) / time.Since(start).Seconds())
			start = time.Now()
			if _, err := eng.Combined(context.Background(), jds, atgis.CombinedSpec{
				T1: 100e3, T2: 80e3, Dist: geom.Haversine, CellSize: 10,
			}, opt); err != nil {
				panic(err)
			}
			ccol = f2(float64(len(v.jdata)) / (1 << 20) / time.Since(start).Seconds())
		}
		r.Rows = append(r.Rows, []string{v.name, f2(cT), f2(aT), jcol, ccol})
	}
	return r
}

// Fig13 sweeps query selectivity (paper Fig. 13) with the chosen
// distance method. The paper compares a streaming and a buffered filter
// layout; the engine has one, the buffered (query.ApplyBox), so the sweep
// has one column.
func Fig13(cfg Config, method geom.DistanceMethod) *Report {
	cfg = cfg.Defaults()
	data := genGeoJSON(cfg, cfg.Features)
	ds := mustDataset(data, atgis.GeoJSON)
	eng := atgis.NewEngine(atgis.EngineConfig{})
	defer eng.Close()
	sub := "a"
	if method == geom.Andoyer {
		sub = "b"
	}
	r := &Report{
		ID:     "fig13" + sub,
		Title:  fmt.Sprintf("Filtering by selectivity, %v distance (MB/s)", method),
		Header: []string{"area-selected-%", "buffered"},
	}
	for _, frac := range []float64{1, 0.1, 0.01, 0.001, 0.0001} {
		spec := &query.Spec{
			Kind: query.Aggregation, Ref: query.ScaleBox(synth.Extent, frac).AsPolygon(),
			Pred: query.PredIntersects, Dist: method, WantPerimeter: true,
		}
		t, _ := runQueryTimed(eng, ds, spec, atgis.Options{Mode: atgis.PAT, BlockSize: 64 << 10})
		r.Rows = append(r.Rows, []string{fmt.Sprintf("%.2f", frac*100), f2(t)})
	}
	return r
}

// Fig14 explores dataset skew: (a) object-count sweep, (b) σ sweep —
// PAT vs FAT throughput (paper Fig. 14).
func Fig14(cfg Config, sub string) *Report {
	cfg = cfg.Defaults()
	r := &Report{ID: "fig14" + sub}
	eng := atgis.NewEngine(atgis.EngineConfig{})
	defer eng.Close()
	run := func(data []byte) (pat, fat float64) {
		ds := mustDataset(data, atgis.GeoJSON)
		spec := stdSpec(query.Aggregation)
		pat, _ = runQueryTimed(eng, ds, spec, atgis.Options{Mode: atgis.PAT, BlockSize: 64 << 10})
		fat, _ = runQueryTimed(eng, ds, spec, atgis.Options{Mode: atgis.FAT, BlockSize: 64 << 10})
		return pat, fat
	}
	switch sub {
	case "a":
		r.Title = "Effect of object count at fixed data volume (MB/s)"
		r.Header = []string{"objects", "AT-GIS-PAT", "AT-GIS-FAT"}
		// Scale edge counts so total bytes stay roughly constant.
		totalEdges := 200_000
		for _, n := range []int{10, 100, 1000, 10000} {
			mean := float64(totalEdges / n)
			if mean < 4 {
				mean = 4
			}
			var buf bytes.Buffer
			g := synth.New(synth.Config{Seed: cfg.Seed, N: n, MeanEdges: mean, Sigma: 0.1})
			if err := g.WriteGeoJSON(&buf); err != nil {
				panic(err)
			}
			pat, fat := run(buf.Bytes())
			r.Rows = append(r.Rows, []string{fmt.Sprintf("%d", n), f2(pat), f2(fat)})
		}
	case "b":
		r.Title = "Effect of polygon-complexity skew σ (MB/s)"
		r.Header = []string{"sigma", "AT-GIS-PAT", "AT-GIS-FAT"}
		for _, sigma := range []float64{0.5, 1, 2, 3, 5} {
			var buf bytes.Buffer
			g := synth.New(synth.Config{Seed: cfg.Seed, N: cfg.Features / 2, Sigma: sigma})
			if err := g.WriteGeoJSON(&buf); err != nil {
				panic(err)
			}
			pat, fat := run(buf.Bytes())
			r.Rows = append(r.Rows, []string{fmt.Sprintf("%.1f", sigma), f2(pat), f2(fat)})
		}
	}
	return r
}

// Fig15 sweeps partition size and store kind for the join (paper
// Fig. 15), reporting processing (P) and merge (M) times of the partition
// pipeline plus the join time. Partitions are inserted by the ordered
// fold, the figure's separate-phase arm; the per-thread-sets arm is not
// reproduced (docs/ARCHITECTURE.md, paper map).
func Fig15(cfg Config) *Report {
	cfg = cfg.Defaults()
	data := genJoinGeoJSON(cfg, cfg.JoinFeatures)
	ds := mustDataset(data, atgis.GeoJSON)
	eng := atgis.NewEngine(atgis.EngineConfig{})
	defer eng.Close()
	r := &Report{
		ID:    "fig15",
		Title: "Effect of partition size and storage format (ms)",
		Header: []string{
			"cell(deg)", "store", "partP(ms)", "partM(ms)", "join(ms)", "total(ms)",
		},
	}
	for _, cell := range []float64{0.25, 0.5, 1, 2, 4} {
		for _, store := range []partition.StoreKind{partition.ArrayStore, partition.ListStore} {
			start := time.Now()
			jr, err := eng.Join(context.Background(), ds, atgis.JoinSpec{
				Mask: idParityMask, CellSize: cell, Store: store,
			}, atgis.Options{Mode: atgis.FAT, BlockSize: 64 << 10})
			if err != nil {
				panic(err)
			}
			total := time.Since(start)
			// Splitting overlaps processing, so ProcessTime (wall
			// minus merge) already covers the split phase; adding
			// SplitTime would double-count it.
			pp := jr.PartitionStats.ProcessTime
			pm := jr.PartitionStats.MergeTime
			r.Rows = append(r.Rows, []string{
				fmt.Sprintf("%.2f", cell), store.String(),
				ms(pp), ms(pm), ms(total - pp - pm), ms(total),
			})
		}
	}
	return r
}

// All runs every experiment in paper order.
func All(cfg Config) []*Report {
	return []*Report{
		Table2(cfg),
		Fig9(cfg, "a"),
		Fig9(cfg, "b"),
		Fig9(cfg, "c"),
		Fig10(cfg),
		Fig11(cfg),
		Fig12(cfg),
		Fig13(cfg, geom.SphericalProjection),
		Fig13(cfg, geom.Andoyer),
		Fig14(cfg, "a"),
		Fig14(cfg, "b"),
		Fig15(cfg),
	}
}

// ByID returns the experiment with the given id.
func ByID(cfg Config, id string) (*Report, error) {
	switch strings.ToLower(id) {
	case "table2":
		return Table2(cfg), nil
	case "fig9a":
		return Fig9(cfg, "a"), nil
	case "fig9b":
		return Fig9(cfg, "b"), nil
	case "fig9c":
		return Fig9(cfg, "c"), nil
	case "fig10":
		return Fig10(cfg), nil
	case "fig11":
		return Fig11(cfg), nil
	case "fig12":
		return Fig12(cfg), nil
	case "fig13a":
		return Fig13(cfg, geom.SphericalProjection), nil
	case "fig13b":
		return Fig13(cfg, geom.Andoyer), nil
	case "fig14a":
		return Fig14(cfg, "a"), nil
	case "fig14b":
		return Fig14(cfg, "b"), nil
	case "fig15":
		return Fig15(cfg), nil
	default:
		return nil, fmt.Errorf("unknown experiment %q", id)
	}
}
