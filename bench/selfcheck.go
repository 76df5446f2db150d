package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// benchmarkFile is the contract at the root of the repository, as seen
// from the benchmark's own directory.
const benchmarkFile = "../BENCHMARK.json"

// benchmarkJSON is the part of BENCHMARK.json the benchmark reads back.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON() (*benchmarkJSON, error) {
	b, err := os.ReadFile(benchmarkFile)
	if err != nil {
		return nil, err
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		return nil, fmt.Errorf("%s: %w", benchmarkFile, err)
	}
	return &bj, nil
}

// runSelfcheck runs two full sets of untraced runs back to back and
// holds them to the benchmark's own bounds: two runs of the same code
// that disagree by more than a metric's bound mean the bound cannot
// resolve a regression of that size on this host. It returns the exit
// code.
func runSelfcheck(cfg config) int {
	bj, err := loadBenchmarkJSON()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: selfcheck: %v\n", err)
		return 1
	}
	cfg.trace = false
	var sets [2]map[string]map[string]metricValue
	for i := range sets {
		sets[i] = make(map[string]map[string]metricValue)
		for _, w := range workloads {
			c := cfg
			c.workload = w.name
			rep, err := runOne(c)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: selfcheck: %s: %v\n", w.name, err)
				return 1
			}
			if !rep.Result.Correct {
				printReport(rep)
				return 1
			}
			sets[i][w.name] = rep.Result.Metrics
			fmt.Fprintf(os.Stderr, "set %d: %s done\n", i+1, w.name)
		}
	}
	code := 0
	fmt.Printf("%-16s %-12s %12s %12s %8s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range workloads {
		for _, m := range bj.EndToEnd {
			a, b := sets[0][w.name][m.Name].Value, sets[1][w.name][m.Name].Value
			diff := math.Abs(b-a) / a
			verdict := ""
			if diff > m.Bound {
				verdict = "  DISAGREE"
				code = 1
			}
			fmt.Printf("%-16s %-12s %12.4f %12.4f %7.1f%% %6.0f%%%s\n", w.name, m.Name, a, b, diff*100, m.Bound*100, verdict)
		}
	}
	return code
}
