// Command atgis-bench regenerates the tables and figures of the paper's
// evaluation section (§5). Every artefact has an experiment id:
//
//	atgis-bench -exp all
//	atgis-bench -exp fig10 -features 8000
//	atgis-bench -list
//
// It is also the machine-readable perf-trajectory tool:
//
//	atgis-bench -json            # headline micro-benchmarks as JSON
//	atgis-bench -json -quick     # smaller data, shorter runs
//
// Performance claims are not decided here: bench/run.sh (BENCHMARK.json)
// measures parent and change end to end; the BENCH_prN.json files are
// the -json record of PRs 1-14.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"atgis/internal/experiments"
)

var ids = []string{
	"table1", "table2", "fig9a", "fig9b", "fig9c", "fig10", "fig11",
	"fig12", "fig13a", "fig13b", "fig14a", "fig14b", "fig15",
}

// quickFeatures is the -quick dataset scale: small enough for a CI
// runner, large enough that per-block scheduling and parsing dominate
// fixed per-op overheads (MB/s stays comparable across scales).
const quickFeatures = 800

func main() {
	exp := flag.String("exp", "all", "experiment id or 'all'")
	features := flag.Int("features", 0, "dataset size in objects (0 = default)")
	joinFeatures := flag.Int("join-features", 0, "join dataset size (0 = default)")
	workers := flag.Int("workers", 0, "max workers for scaling sweeps (0 = NumCPU)")
	seed := flag.Int64("seed", 0, "dataset seed (0 = default)")
	list := flag.Bool("list", false, "list experiment ids")
	jsonOut := flag.Bool("json", false,
		"run the headline micro-benchmarks and emit a machine-readable JSON summary (name, ns/op, MB/s, allocs/op)")
	quick := flag.Bool("quick", false,
		"CI scale for -json: smaller datasets and ~300ms benchtime instead of 1s")
	flag.Parse()

	if *list {
		for _, id := range ids {
			fmt.Println(id)
		}
		return
	}
	cfg := experiments.Config{
		Features:     *features,
		JoinFeatures: *joinFeatures,
		MaxWorkers:   *workers,
		Seed:         *seed,
	}
	if *quick {
		if cfg.Features == 0 {
			cfg.Features = quickFeatures
		}
		// testing.Benchmark honours the standard -test.benchtime flag;
		// registering the testing flags late keeps them off our CLI.
		testing.Init()
		if err := flag.Set("test.benchtime", "300ms"); err != nil {
			fmt.Fprintln(os.Stderr, "atgis-bench: set benchtime:", err)
			os.Exit(1)
		}
	}

	if *jsonOut {
		if *exp != "all" {
			fmt.Fprintln(os.Stderr, "atgis-bench: -json runs the fixed micro-benchmark suite; -exp is ignored")
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(experiments.Micro(cfg)); err != nil {
			fmt.Fprintln(os.Stderr, "atgis-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *exp == "all" {
		for _, r := range experiments.All(cfg) {
			r.Print(os.Stdout)
		}
		return
	}
	r, err := experiments.ByID(cfg, *exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "atgis-bench:", err)
		os.Exit(1)
	}
	r.Print(os.Stdout)
}
