// Command atgis-bench regenerates the tables and figures of the paper's
// evaluation section (§5). Every artefact has an experiment id:
//
//	atgis-bench -exp all
//	atgis-bench -exp fig10 -features 8000
//	atgis-bench -list
//
// Performance claims are not decided here: bench/run.sh (BENCHMARK.json)
// measures parent and change end to end. The frozen micro series this
// command used to print (PRs 1-14) is kept in docs/bench-history.json;
// bench/README.md maps its names to the metrics that replaced them.
package main

import (
	"flag"
	"fmt"
	"os"

	"atgis/internal/experiments"
)

var ids = []string{
	"table2", "fig9a", "fig9b", "fig9c", "fig10", "fig11",
	"fig12", "fig13a", "fig13b", "fig14a", "fig14b", "fig15",
}

func main() {
	exp := flag.String("exp", "all", "experiment id or 'all'")
	features := flag.Int("features", 0, "dataset size in objects (0 = default)")
	joinFeatures := flag.Int("join-features", 0, "join dataset size (0 = default)")
	workers := flag.Int("workers", 0, "max workers for scaling sweeps (0 = NumCPU)")
	seed := flag.Int64("seed", 0, "dataset seed (0 = default)")
	list := flag.Bool("list", false, "list experiment ids")
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
