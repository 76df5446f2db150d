// Command bench is the repository's benchmark: it generates seeded
// inputs, runs one named workload in a closed loop for a fixed time,
// checks every answer against an oracle and prints every metric by
// name with its unit. README.md describes the workloads and metrics.
//
//	bash bench/run.sh --workload cold_scan --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload cold_scan --seed 1 --seconds 15 --trace 1
//	bash bench/run.sh -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"atgis"
)

// setupRounds is how often a run sets the workload up to report the
// median set-up time; the last instance is the one measured.
const setupRounds = 7

// maxProcs caps the worker pools and client connections.
const maxProcs = 4

// outDir holds run directories and traces, relative to the benchmark's
// own directory (run.sh and go test both run there).
const outDir = "out"

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
}

// workload is one named traffic mix. prepare generates its inputs and
// expected answers; setup brings the program to the point of its first
// timed operation and is what setup_s times.
type workload interface {
	prepare(e *env) error
	setup(e *env) (instance, error)
}

// instance is a set-up workload: open sources, running engines and
// servers.
type instance interface {
	// run issues operations in a closed loop with no think time until
	// the deadline, recording each into rec.
	run(until time.Time, rec *recorder)
	// layers adds the per-layer counts the instance can read off its
	// engines, sources and coordinator.
	layers(m map[string]float64)
	close()
}

// env is what one run shares between its workload and the probes.
type env struct {
	cfg   config
	dir   string
	nproc int
	tally *tally
	genS  float64
	data  map[string]*dataset
	// probes is set by a traced run.
	probes *probeInputs
}

// dataset returns the named feature set in at least the given formats,
// generating what is missing. Generation time is bench.gen_s, never
// part of setup_s.
func (e *env) dataset(name string, n int, formats ...atgis.Format) (*dataset, error) {
	start := time.Now()
	defer func() { e.genS += time.Since(start).Seconds() }()
	d := e.data[name]
	var missing []atgis.Format
	for _, f := range formats {
		if d == nil || d.path[f] == "" {
			missing = append(missing, f)
		}
	}
	if len(missing) == 0 {
		return d, nil
	}
	fresh, err := genDataset(e.dir, name, e.cfg.seed, scaled(n, e.cfg.scale), missing...)
	if err != nil {
		return nil, err
	}
	if d == nil {
		e.data[name] = fresh
		return fresh, nil
	}
	for f, p := range fresh.path {
		d.path[f], d.size[f] = p, fresh.size[f]
	}
	return d, nil
}

// tally counts operations attempted and failed across every window and
// check of a run.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   []string
}

func (t *tally) count(name string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.reasons) < 8 {
			t.reasons = append(t.reasons, fmt.Sprintf("%s: %v", name, err))
		}
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the driver-facing last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// opDetail is one operation class's distribution in the report.
type opDetail struct {
	Op       string  `json:"op"`
	What     string  `json:"what"`
	N        int     `json:"n"`
	Q1MS     float64 `json:"q1_ms"`
	MedianMS float64 `json:"median_ms"`
	Q3MS     float64 `json:"q3_ms"`
}

// report is the full account of a run, written to out/ and summarised
// on standard error.
type report struct {
	Workload   string           `json:"workload"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Scale      float64          `json:"scale"`
	Trace      bool             `json:"trace"`
	GoVersion  string           `json:"go_version"`
	NProc      int              `json:"nproc"`
	InputBytes map[string]int64 `json:"input_bytes"`
	GenS       float64          `json:"gen_s"`
	SetupS     []float64        `json:"setup_s,omitempty"`
	Yardstick  [][]float64      `json:"yardstick_ms,omitempty"` // one reading before set-up, after each set-up and after each slice
	Ops        []opDetail       `json:"ops"`
	Failures   []string         `json:"failures,omitempty"`
	Result     result           `json:"result"`
}

func main() {
	var cfg config
	var trace string
	var selfcheck bool
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run: "+workloadNames()+" | all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs and windows")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured window")
	flag.StringVar(&trace, "trace", "0", "1 = traced run: per-layer metrics and out/trace-<workload>.json")
	flag.Float64Var(&cfg.scale, "scale", 1, "multiplier on the input feature counts")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run every workload twice and compare the two sets against the bounds in BENCHMARK.json")
	flag.Parse()
	on, err := strconv.ParseBool(trace)
	if err != nil || flag.NArg() > 0 || cfg.seconds <= 0 || cfg.scale <= 0 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = on
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))

	if selfcheck {
		os.Exit(runSelfcheck(cfg))
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = strings.Split(workloadNames(), " | ")
	}
	code := 0
	for _, name := range names {
		c := cfg
		c.workload = name
		rep, err := runOne(c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		printReport(rep)
		if !rep.Result.Correct {
			code = 1
		}
		line, err := json.Marshal(rep.Result)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	os.Exit(code)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, " | ")
}

// runOne generates the inputs, sets the workload up, measures it and
// removes everything it wrote except the report and the trace.
func runOne(cfg config) (*report, error) {
	spec := findWorkload(cfg.workload)
	if spec == nil {
		return nil, fmt.Errorf("unknown workload (want %s)", workloadNames())
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "run-"+cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Restart the resident-set high-water mark, so that a process that
	// runs several workloads (-workload all, -selfcheck) reports each
	// one's own peak. Linux only, best effort: without it the peak is
	// the process's so far.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)

	e := &env{cfg: cfg, dir: dir, nproc: runtime.GOMAXPROCS(0), tally: &tally{}, data: make(map[string]*dataset)}
	w := spec.new()
	if err := w.prepare(e); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	rep := &report{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale,
		Trace: cfg.trace, GoVersion: runtime.Version(), NProc: e.nproc}

	values := make(map[string]float64)
	var specs []metricSpec
	var measured *recorder
	if cfg.trace {
		specs = perLayer
		measured, err = runTraced(e, w, values)
	} else {
		specs = endToEnd
		measured, err = runEndToEnd(e, w, values, rep)
	}
	if err != nil {
		return nil, err
	}

	rep.GenS = e.genS
	rep.InputBytes = make(map[string]int64)
	for name, d := range e.data {
		for f, size := range d.size {
			rep.InputBytes[name+"."+formatExt[f]] = size
		}
	}
	correct := e.tally.failed == 0 && e.tally.attempted > 0
	for i, op := range opNames {
		s := measured.samples(op)
		rep.Ops = append(rep.Ops, opDetail{Op: op, What: spec.ops[i], N: len(s),
			MedianMS: median(s), Q1MS: quantile(s, 0.25), Q3MS: quantile(s, 0.75)})
		if len(s) == 0 {
			correct = false
			rep.Failures = append(rep.Failures, op+": no operation completed inside the window")
		}
	}
	rep.Failures = append(rep.Failures, e.tally.reasons...)
	rep.Result = result{Correct: correct, Attempted: e.tally.attempted, Failed: e.tally.failed,
		Metrics: make(map[string]metricValue, len(specs))}
	for _, m := range specs {
		rep.Result.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}

	mode := "e2e"
	if cfg.trace {
		mode = "trace"
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(outDir, "report-"+cfg.workload+"-"+mode+".json"), b, 0o644); err != nil {
		return nil, err
	}
	return rep, nil
}

// sliceSeconds is how long the window runs between two yardstick
// readings (longer when a round of the workload is longer).
const sliceSeconds = 0.5

// runEndToEnd is the untraced run: median set-up time over several
// set-ups, then one measured window on the last instance. The yardstick
// is read after every set-up and every slice of the window, so its
// readings cover the same span of time as the operations. A time is
// scaled by the reference reading over the host's speed when it was
// taken: the lower quartile of the yardstick readings around it.
func runEndToEnd(e *env, w workload, values map[string]float64, rep *report) (*recorder, error) {
	y := newYardstick(e.nproc)
	y.read()
	var inst instance
	for i := 0; i < setupRounds; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		if inst, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		rep.SetupS = append(rep.SetupS, time.Since(start).Seconds())
		y.read()
	}
	defer inst.close()
	values["setup_s"] = median(rep.SetupS) * y.scale(0, len(y.readings))

	// Slice i runs between readings first+i and first+i+1.
	first := len(y.readings) - 1
	var slices []*recorder
	for end := time.Now().Add(seconds(e.cfg.seconds)); time.Now().Before(end); y.read() {
		rec := newRecorder(e.tally, nil)
		inst.run(time.Now().Add(min(seconds(sliceSeconds), time.Until(end))), rec)
		slices = append(slices, rec)
	}
	all := newRecorder(e.tally, nil) // unscaled, for the report
	scaled := make(map[string][]float64)
	for i, rec := range slices {
		// The two readings around the slice and one more on either side.
		f := y.scale(max(first, first+i-1), first+i+3)
		for _, op := range opNames {
			for _, lat := range rec.samples(op) {
				all.lat[op] = append(all.lat[op], lat)
				scaled[op] = append(scaled[op], lat*f)
			}
		}
	}
	values["peak_rss_mb"] = peakRSSMB()
	for _, op := range opNames {
		values[op+"_q1_ms"] = steady(scaled[op])
	}
	rep.Yardstick = y.readings
	return all, nil
}

// runTraced is the traced run: short untraced and traced slices on one
// instance give the tracing overhead, the instance's own counters give
// the workload's per-layer counts, and the probes time each layer's
// exported functions for the rest. Nothing here is scaled.
func runTraced(e *env, w workload, values map[string]float64) (*recorder, error) {
	if err := prepareProbes(e); err != nil {
		return nil, fmt.Errorf("prepare probes: %w", err)
	}
	inst, err := w.setup(e)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	tr := newTracer()
	plain := newRecorder(e.tally, nil)
	traced := newRecorder(e.tally, tr)
	// Alternating slices, so host drift falls on both sides alike.
	for _, rec := range []*recorder{plain, traced, plain, traced} {
		inst.run(time.Now().Add(seconds(e.cfg.seconds/8)), rec)
	}
	inst.layers(values)
	inst.close()

	if base := steady(plain.samples("op1")); base > 0 {
		values["bench.trace_overhead_ratio"] = steady(traced.samples("op1")) / base
	}
	for _, op := range opNames {
		values["e2e."+op+"_p50_ms"] = median(traced.samples(op))
	}
	t, pct := tail(traced.samples("op1"))
	values["e2e.op1_tail_ms"], values["e2e.op1_tail_pct"] = t, float64(pct)

	if err := runProbes(e, tr, values); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	values["bench.gen_s"] = e.genS
	values["e2e.fail_rate"] = float64(e.tally.failed) / float64(max(e.tally.attempted, 1))
	if err := tr.write(filepath.Join(outDir, "trace-"+e.cfg.workload+".json"), e.cfg.workload, e.cfg.seed); err != nil {
		return nil, err
	}
	return traced, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.Sys) / (1 << 20)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// printReport writes the human-readable account to standard error;
// standard output carries only the result line.
func printReport(rep *report) {
	w := os.Stderr
	fmt.Fprintf(w, "%s  seed=%d seconds=%g scale=%g trace=%v  %s nproc=%d gen=%.2fs\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Scale, rep.Trace, rep.GoVersion, rep.NProc, rep.GenS)
	for name, size := range rep.InputBytes {
		fmt.Fprintf(w, "  input %-18s %.1f MB\n", name, float64(size)/(1<<20))
	}
	for _, op := range rep.Ops {
		fmt.Fprintf(w, "  %s  n=%-5d median %9.3f ms  [q1 %.3f, q3 %.3f]  %s\n",
			op.Op, op.N, op.MedianMS, op.Q1MS, op.Q3MS, op.What)
	}
	specs := endToEnd
	if rep.Trace {
		specs = perLayer
	}
	for _, m := range specs {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", m.name, rep.Result.Metrics[m.name].Value, m.unit)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", rep.Result.Attempted, rep.Result.Failed, rep.Result.Correct)
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
}
